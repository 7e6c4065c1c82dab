// Command synergy-server serves a Synergy deployment of the Company example
// schema (Figure 2) over the MySQL client/server protocol. It deploys one
// system per concurrency mode — hierarchical, mvcc, occ — as server
// backends; a client selects one with the connect database name or
// `SET synergy_mode`, and its freshness contract against async-maintained
// views with `SET synergy_reads`. See docs/PROTOCOL.md for the implemented
// command subset.
//
// Usage:
//
//	synergy-server -listen 127.0.0.1:4306 -slots 8 -queue 16
//	mysql-ish client: user@tcp(127.0.0.1:4306)/occ
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/synergy"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:4306", "TCP listen address")
		slots    = flag.Int("slots", 8, "statement execution slots")
		queue    = flag.Int("queue", 16, "admission wait-queue bound")
		maxConns = flag.Int("maxconns", 64, "connection cap")
	)
	flag.Parse()
	if err := run(*listen, *slots, *queue, *maxConns); err != nil {
		fmt.Fprintln(os.Stderr, "synergy-server:", err)
		os.Exit(1)
	}
}

func run(listen string, slots, queue, maxConns int) error {
	backends := make([]server.Backend, 0, 3)
	for _, m := range []struct {
		name string
		mode synergy.ConcurrencyMode
	}{
		{"hierarchical", synergy.Hierarchical},
		{"mvcc", synergy.MVCC},
		{"occ", synergy.OCC},
	} {
		sys, err := deploy(m.mode)
		if err != nil {
			return fmt.Errorf("deploying %s: %w", m.name, err)
		}
		backends = append(backends, server.Backend{Name: m.name, System: sys})
		fmt.Printf("deployed %s backend (Company schema, %d views)\n", m.name, len(sys.Design.Views))
	}
	srv, err := server.New(server.Config{
		Backends: backends,
		Default:  "hierarchical",
		MaxConns: maxConns,
		Slots:    slots,
		Queue:    queue,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("serving MySQL protocol on %s (backends: hierarchical, mvcc, occ; %d slots, queue %d)\n",
		l.Addr(), slots, queue)
	return srv.Serve(l)
}

// deploy stands up one Company-schema system pre-loaded with
// schema.CompanySample, the shell's dataset.
func deploy(mode synergy.ConcurrencyMode) (*synergy.System, error) {
	workload := append(schema.CompanyWorkload(), "UPDATE Employee SET EName = ? WHERE EID = ?")
	cfg := synergy.Config{Concurrency: mode}
	if mode != synergy.Hierarchical {
		cfg.MaxVersions = 16
	}
	sys, err := synergy.New(schema.Company(), schema.CompanyRoots(), workload, cfg)
	if err != nil {
		return nil, err
	}
	for _, t := range schema.CompanySample() {
		if err := sys.LoadBase(t.Table, t.Rows); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	return sys, nil
}
