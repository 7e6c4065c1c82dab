package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// checkGolden compares got, the rendering of what, with testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, what, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s differs from %s at line %d:\n got  %s\n want %s", what, path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s differs from %s: got %d lines, want %d", what, path, len(g), len(w))
	}
}
