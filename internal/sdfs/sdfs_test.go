package sdfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"synergy/internal/sim"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return NewFS(nil, Slaves(), 3)
}

// The first append creates the file; later ones extend it.
func TestCreateAppendRead(t *testing.T) {
	fs := newFS(t)
	ctx := sim.NewCtx()
	if err := fs.Append(ctx, "/wal/slave-0.log", []byte("edit-1\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, "/wal/slave-0.log", []byte("edit-2\n")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll(ctx, "/wal/slave-0.log")
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("edit-1\nedit-2\n"); !bytes.Equal(got, want) {
		t.Fatalf("ReadAll = %q, want %q", got, want)
	}
}

func TestAppendCreatesImplicitly(t *testing.T) {
	fs := newFS(t)
	ctx := sim.NewCtx()
	if err := fs.Append(ctx, "/implicit", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, err := fs.Length("/implicit"); err != nil || n != 1 {
		t.Fatalf("Length after append = %d, %v; want 1, nil", n, err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.ReadAll(sim.NewCtx(), "/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("error = %v, want ErrNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	fs := newFS(t)
	ctx := sim.NewCtx()
	fs.Append(ctx, "/f", []byte("data"))
	if err := fs.Delete(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadAll(ctx, "/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAll after delete error = %v, want ErrNotFound", err)
	}
	if err := fs.Delete(ctx, "/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete error = %v, want ErrNotFound", err)
	}
}

// An append ships its bytes once per replica; a read ships them once.
func TestReplicationAccounting(t *testing.T) {
	fs := newFS(t)
	ctx := sim.NewCtx()
	fs.Append(ctx, "/f", make([]byte, 1000))
	if got := ctx.Snapshot().BytesMoved; got != 3000 {
		t.Fatalf("append moved %d bytes, want 3000 (3x replication)", got)
	}
	if n, err := fs.Length("/f"); err != nil || n != 1000 {
		t.Fatalf("Length = %d, %v; want 1000, nil", n, err)
	}
	read := sim.NewCtx()
	if _, err := fs.ReadAll(read, "/f"); err != nil {
		t.Fatal(err)
	}
	if got := read.Snapshot().BytesMoved; got != 1000 {
		t.Fatalf("read moved %d bytes, want 1000", got)
	}
}

func TestReplicationCappedByDatanodes(t *testing.T) {
	fs := NewFS(nil, []string{"slave-0", "slave-1"}, 3)
	if got := fs.Replication(); got != 2 {
		t.Fatalf("replication = %d, want 2 (capped at datanode count)", got)
	}
}

func TestAppendPipelineCharges(t *testing.T) {
	costs := sim.DefaultCosts()
	fs := NewFS(costs, Slaves(), 3)
	ctx := sim.NewCtx()
	fs.Append(ctx, "/wal", []byte("record"))
	// Expect at least 3 RPC hops (one per replica in the pipeline).
	if s := ctx.Snapshot(); s.RPCs < 3 {
		t.Fatalf("pipeline RPCs = %d, want >= 3", s.RPCs)
	}
	if ctx.Elapsed() < 3*costs.RPC {
		t.Fatalf("pipeline elapsed = %v, want >= %v", ctx.Elapsed(), 3*costs.RPC)
	}
}

func TestBlockRollover(t *testing.T) {
	fs := newFS(t)
	fs.blockSize = 10 // tiny blocks to force rollover
	ctx := sim.NewCtx()
	data := []byte("0123456789abcdefghij!") // 21 bytes -> 3 blocks
	fs.Append(ctx, "/big", data)
	got, err := fs.ReadAll(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip across blocks corrupted data: %q", got)
	}
	fs.mu.RLock()
	nblocks := len(fs.files["/big"].blocks)
	fs.mu.RUnlock()
	if nblocks != 3 {
		t.Fatalf("blocks = %d, want 3", nblocks)
	}
}

func TestConcurrentAppendsDoNotRace(t *testing.T) {
	fs := newFS(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := sim.NewCtx()
			path := fmt.Sprintf("/wal/%d", i)
			for j := 0; j < 100; j++ {
				fs.Append(ctx, path, []byte("r"))
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if n, err := fs.Length(fmt.Sprintf("/wal/%d", i)); err != nil || n != 100 {
			t.Fatalf("Length(/wal/%d) = %d, %v; want 100, nil", i, n, err)
		}
	}
}

func TestLength(t *testing.T) {
	fs := newFS(t)
	ctx := sim.NewCtx()
	fs.Append(ctx, "/f", []byte("hello"))
	n, err := fs.Length("/f")
	if err != nil || n != 5 {
		t.Fatalf("Length = %d, %v; want 5, nil", n, err)
	}
	if _, err := fs.Length("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Length(missing) err = %v, want ErrNotFound", err)
	}
}
