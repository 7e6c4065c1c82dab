package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// deployment is one served system: the engine, the wire server in front of
// it on a real TCP loopback socket, and what set-up measured.
type deployment struct {
	sys  *synergy.System
	srv  *server.Server
	addr string
	// data (TPC-W) or custRows (the Customer-only scan schema) are the
	// generated rows; the stream generator indexes what it needs and set-up
	// drops them, so they never count as the system's live heap.
	data     *tpcw.Data
	custRows []schema.Row
	// baseTables are the relations of the input schema, for space_amp.
	baseTables []string
	served     chan error

	// setup wall breakdown, milliseconds.
	generateMS, newMS, loadMS, buildViewsMS float64
}

// customerOnlySchema is the Customer relation alone, as the largescan
// experiment uses it: one wide table of controllable size.
func customerOnlySchema() *schema.Schema {
	s := schema.New()
	cust := tpcw.Schema().Relation("Customer")
	s.AddRelation(&schema.Relation{Name: cust.Name, Columns: cust.Columns, PK: cust.PK})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// deploy generates the data, builds the system, loads it, materializes the
// views and starts serving it on 127.0.0.1:0.
func deploy(w workloadSpec, sc scale, seed int64) (*deployment, error) {
	d := &deployment{}
	cfg := synergy.Config{Concurrency: w.mode}
	if w.mode == synergy.MVCC {
		cfg.MaxVersions = 16
	}
	var err error
	if w.scanOnly {
		t0 := time.Now()
		rows := tpcw.GenerateCustomers(sc.scanRows, seed)
		d.generateMS = ms(time.Since(t0))
		d.custRows = rows
		d.baseTables = []string{"Customer"}
		t0 = time.Now()
		d.sys, err = synergy.New(customerOnlySchema(), []string{"Customer"}, nil, cfg)
		d.newMS = ms(time.Since(t0))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if err := d.sys.LoadBase("Customer", rows); err != nil {
			return nil, err
		}
		d.loadMS = ms(time.Since(t0))
	} else {
		t0 := time.Now()
		d.data = tpcw.Generate(sc.numCust, seed)
		d.generateMS = ms(time.Since(t0))
		cfg.BaseIndexes = tpcw.BaseIndexes()
		sch := tpcw.Schema()
		for _, r := range sch.Relations() {
			d.baseTables = append(d.baseTables, r.Name)
		}
		t0 = time.Now()
		d.sys, err = synergy.New(sch, tpcw.Roots(), tpcw.WorkloadSQL(), cfg)
		d.newMS = ms(time.Since(t0))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		tables := make([]string, 0, len(d.data.Tables))
		for t := range d.data.Tables {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		for _, t := range tables {
			if err := d.sys.LoadBase(t, d.data.Tables[t]); err != nil {
				return nil, fmt.Errorf("loading %s: %w", t, err)
			}
		}
		d.loadMS = ms(time.Since(t0))
	}
	t0 := time.Now()
	if err := d.sys.BuildViews(); err != nil {
		return nil, err
	}
	d.buildViewsMS = ms(time.Since(t0))

	d.srv, err = server.New(server.Config{
		Backends: []server.Backend{server.SystemBackend("synergy", d.sys)},
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = l.Addr().String()
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(l) }()
	return d, nil
}

// close stops the server and waits for its accept loop and handlers.
func (d *deployment) close() {
	d.srv.Close()
	<-d.served
}
