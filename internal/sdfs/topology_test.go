package sdfs_test

import (
	"slices"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/sdfs"
)

// The testbed of §IX-A1 has five slaves, each running a DataNode beside a
// RegionServer; regions go to the region servers round-robin in that order.
func TestNewDefaultTopology(t *testing.T) {
	fs := sdfs.NewFS(nil, sdfs.Slaves(), 3)
	dns := fs.Datanodes()
	if len(dns) != 5 {
		t.Fatalf("datanodes = %v, want 5 (paper §IX-A1)", dns)
	}
	hc := hbase.NewHCluster(nil, fs)
	spec := hbase.TableSpec{Name: "t", SplitKeys: []string{"b", "c", "d", "e", "f"}}
	if err := hc.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	var servers []string
	for _, r := range hc.Regions("t") {
		servers = append(servers, r.Server)
	}
	if want := append(dns, dns[0]); !slices.Equal(servers, want) {
		t.Fatalf("region servers = %v, want %v", servers, want)
	}
}
