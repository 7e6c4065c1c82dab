package synergy_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/sim"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

var updatePopulation = flag.Bool("update", false, "rewrite testdata/population.golden from the current population path")

// TestPopulationGolden pins what §IX-D1's population procedure — LoadBase per
// table, BuildViews — leaves in the store, per table: rows, KeyValue bytes,
// the region layout (count, and a hash over every region's start key and
// server) and a hash over every (key, qualifier, value) in scan order. Load
// stamps are not part of it. The split threshold is a few hundred rows so
// that views and indexes split while they load: a daughter's server comes
// from the cluster-wide round-robin, so the layout hash holds only while
// tables are installed in one order — run it at -cpu 1,2,4.
func TestPopulationGolden(t *testing.T) {
	data := tpcw.Generate(50, 1)
	var b strings.Builder
	for _, mode := range []struct {
		name string
		cfg  synergy.Config
	}{
		{"hierarchical", synergy.Config{Concurrency: synergy.Hierarchical}},
		{"mvcc", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}},
	} {
		mode.cfg.BaseIndexes = tpcw.BaseIndexes()
		mode.cfg.SplitThreshold = 400
		sys, err := synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(), mode.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range data.TableNames() {
			if err := sys.LoadBase(table, data.Tables[table]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.BuildViews(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", mode.name)
		client, ctx := sys.Store.NewClient(), sim.NewCtx()
		for _, table := range sys.Store.Tables() {
			layout := fnv.New64a()
			regions := sys.Store.Regions(table)
			for _, r := range regions {
				fmt.Fprintf(layout, "%q@%s\n", r.Start, r.Server)
			}
			content := fnv.New64a()
			rows := 0
			sc, err := client.Scan(ctx, table, hbase.ScanSpec{})
			if err != nil {
				t.Fatal(err)
			}
			for {
				r, ok := sc.Next(ctx)
				if !ok {
					break
				}
				rows++
				for _, c := range r.Cells {
					fmt.Fprintf(content, "%q %q %q\n", r.Key, c.Qualifier, c.Value)
				}
			}
			fmt.Fprintf(&b, "%s rows=%d bytes=%d regions=%d layout=%016x content=%016x\n",
				table, rows, sys.Store.TableBytes(table), len(regions), layout.Sum64(), content.Sum64())
		}
	}

	path := filepath.Join("testdata", "population.golden")
	if *updatePopulation {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("population differs from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff renders the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
