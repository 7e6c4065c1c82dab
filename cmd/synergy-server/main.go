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

// deploy stands up one Company-schema system pre-loaded with the shell's
// small deterministic dataset.
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
	var addresses, departments, employees, projects, worksOn []schema.Row
	for a := int64(1); a <= 8; a++ {
		addresses = append(addresses, schema.Row{"AID": a, "Street": fmt.Sprintf("%d Main St", a), "City": "Nashville", "Zip": fmt.Sprintf("%05d", 37000+a)})
	}
	for d := int64(1); d <= 3; d++ {
		departments = append(departments, schema.Row{"DNo": d, "DName": fmt.Sprintf("dept-%d", d)})
	}
	for e := int64(1); e <= 12; e++ {
		employees = append(employees, schema.Row{
			"EID": e, "EName": fmt.Sprintf("employee-%d", e),
			"EHome_AID": (e % 8) + 1, "EOffice_AID": ((e + 3) % 8) + 1, "E_DNo": (e % 3) + 1,
		})
	}
	for p := int64(1); p <= 4; p++ {
		projects = append(projects, schema.Row{"PNo": p, "PName": fmt.Sprintf("project-%d", p), "P_DNo": (p % 3) + 1})
	}
	for e := int64(1); e <= 12; e++ {
		for p := int64(1); p <= 2; p++ {
			worksOn = append(worksOn, schema.Row{"WO_EID": e, "WO_PNo": p, "Hours": e*5 + p})
		}
	}
	for table, rows := range map[string][]schema.Row{
		"Address": addresses, "Department": departments, "Employee": employees,
		"Project": projects, "Works_On": worksOn,
	} {
		if err := sys.LoadBase(table, rows); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	return sys, nil
}
