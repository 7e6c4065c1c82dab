// Package sdfs is a simulated HDFS: an append-only, block-replicated
// distributed filesystem. In the paper's architecture (Figure 7) HDFS stores
// the HBase write-ahead logs and store files as well as the Synergy
// transaction layer's WAL; this package plays that role.
//
// Files are append-only (HDFS semantics). Every append is pipelined through
// the block's replica chain, charging one RPC hop per replica, which is how
// the durability cost of WAL writes reaches the paper's response times.
package sdfs

import (
	"errors"
	"fmt"
	"sync"

	"synergy/internal/sim"
)

// DefaultBlockSize mirrors the HDFS default of 64 MiB (Hadoop 2.x era).
const DefaultBlockSize = 64 << 20

// ErrNotFound reports a read, length or delete of a file that does not exist.
var ErrNotFound = errors.New("sdfs: file not found")

// block is one replicated unit of file data. Contents are stored once; every
// append to a block travels the replication pipeline.
type block struct {
	data []byte
}

type file struct {
	blocks []*block
	length int64
}

// FS is the NameNode-plus-DataNodes ensemble.
type FS struct {
	mu          sync.RWMutex
	costs       *sim.Costs
	files       map[string]*file
	datanodes   []string
	replication int
	blockSize   int
}

// Slaves names the testbed's five slave nodes (§IX-A1), each running a
// DataNode beside a RegionServer. The master, the transaction node and the
// client cost the same to reach as any slave, so no other node is named.
func Slaves() []string {
	return []string{"slave-0", "slave-1", "slave-2", "slave-3", "slave-4"}
}

// NewFS builds a filesystem over the given datanodes with the given
// replication factor (capped at the number of datanodes). nil costs are the
// default calibration.
func NewFS(costs *sim.Costs, datanodes []string, replication int) *FS {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(datanodes) && len(datanodes) > 0 {
		replication = len(datanodes)
	}
	return &FS{
		costs:       costs,
		files:       make(map[string]*file),
		datanodes:   datanodes,
		replication: replication,
		blockSize:   DefaultBlockSize,
	}
}

// Datanodes lists the filesystem's datanodes in placement order.
func (fs *FS) Datanodes() []string { return append([]string(nil), fs.datanodes...) }

// Replication reports the effective replication factor.
func (fs *FS) Replication() int { return fs.replication }

// Append adds data to the end of the file, creating it if absent. The write
// is pipelined: client → replica 1 → replica 2 → ... with per-hop transfer
// cost, then acknowledged back, matching the HDFS write pipeline HBase WAL
// appends traverse.
func (fs *FS) Append(ctx *sim.Ctx, path string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[path]
	if f == nil {
		f = &file{}
		fs.files[path] = f
	}
	for len(data) > 0 {
		var b *block
		if n := len(f.blocks); n > 0 && len(f.blocks[n-1].data) < fs.blockSize {
			b = f.blocks[n-1]
		} else {
			b = &block{}
			f.blocks = append(f.blocks, b)
		}
		room := fs.blockSize - len(b.data)
		chunk := data
		if len(chunk) > room {
			chunk = chunk[:room]
		}
		b.data = append(b.data, chunk...)
		f.length += int64(len(chunk))
		data = data[len(chunk):]

		// Pipeline cost: first hop from the writer, then chained
		// replica-to-replica transfers, one per datanode holding a copy.
		for range min(fs.replication, len(fs.datanodes)) {
			fs.costs.ChargeRPC(ctx, len(chunk))
		}
	}
	return nil
}

// ReadAll returns the full contents of a file, charging one transfer per
// block from one of its replicas.
func (fs *FS) ReadAll(ctx *sim.Ctx, path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f := fs.files[path]
	if f == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]byte, 0, f.length)
	for _, b := range f.blocks {
		fs.costs.ChargeRPC(ctx, len(b.data))
		out = append(out, b.data...)
	}
	return out, nil
}

// Delete removes a file. Deleting a missing file reports ErrNotFound.
func (fs *FS) Delete(ctx *sim.Ctx, path string) error {
	fs.costs.ChargeRPC(ctx, 64)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(fs.files, path)
	return nil
}

// Length returns the byte length of a file, or ErrNotFound.
func (fs *FS) Length(path string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f := fs.files[path]
	if f == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f.length, nil
}
