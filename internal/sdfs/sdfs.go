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

	"synergy/internal/cluster"
	"synergy/internal/sim"
)

// DefaultBlockSize mirrors the HDFS default of 64 MiB (Hadoop 2.x era).
const DefaultBlockSize = 64 << 20

// ErrNotFound reports a read, length or delete of a file that does not exist.
var ErrNotFound = errors.New("sdfs: file not found")

// block is one replicated unit of file data. Contents are stored once; the
// replicas slice records which datanodes hold copies, which drives the
// pipeline latency of every append to it.
type block struct {
	data     []byte
	replicas []string // datanode names
}

type file struct {
	blocks []*block
	length int64
}

// FS is the NameNode-plus-DataNodes ensemble.
type FS struct {
	mu          sync.RWMutex
	cl          *cluster.Cluster
	files       map[string]*file
	datanodes   []string
	replication int
	blockSize   int
	nextDN      int // round-robin placement cursor
}

// NewFS builds a filesystem over the cluster's slave nodes with the given
// replication factor (capped at the number of datanodes).
func NewFS(cl *cluster.Cluster, replication int) *FS {
	var dns []string
	for _, n := range cl.Nodes(cluster.RoleSlave) {
		dns = append(dns, n.Name)
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(dns) && len(dns) > 0 {
		replication = len(dns)
	}
	return &FS{
		cl:          cl,
		files:       make(map[string]*file),
		datanodes:   dns,
		replication: replication,
		blockSize:   DefaultBlockSize,
	}
}

// Replication reports the effective replication factor.
func (fs *FS) Replication() int { return fs.replication }

// placeReplicas picks replica datanodes round-robin, like the HDFS default
// placement policy in a single rack.
func (fs *FS) placeReplicas() []string {
	if len(fs.datanodes) == 0 {
		return nil
	}
	reps := make([]string, 0, fs.replication)
	for i := 0; i < fs.replication; i++ {
		reps = append(reps, fs.datanodes[(fs.nextDN+i)%len(fs.datanodes)])
	}
	fs.nextDN = (fs.nextDN + 1) % len(fs.datanodes)
	return reps
}

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
			b = &block{replicas: fs.placeReplicas()}
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
		// replica-to-replica transfers.
		prev := "client-0"
		for _, dn := range b.replicas {
			fs.cl.RPC(ctx, prev, dn, len(chunk))
			prev = dn
		}
	}
	return nil
}

// ReadAll returns the full contents of a file, charging transfer from each
// block's first live replica.
func (fs *FS) ReadAll(ctx *sim.Ctx, path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f := fs.files[path]
	if f == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]byte, 0, f.length)
	for _, b := range f.blocks {
		src := "master-0"
		if len(b.replicas) > 0 {
			src = b.replicas[0]
		}
		fs.cl.RPC(ctx, src, "client-0", len(b.data))
		out = append(out, b.data...)
	}
	return out, nil
}

// Delete removes a file. Deleting a missing file reports ErrNotFound.
func (fs *FS) Delete(ctx *sim.Ctx, path string) error {
	fs.cl.RPC(ctx, "client-0", "master-0", 64)
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
