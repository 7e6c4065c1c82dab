package main

import (
	"strings"
	"testing"
)

// The checker must fail on the seeded violations — one finding per
// flagged operation, none for the owner-annotated function.
func TestSeededViolationsAreCaught(t *testing.T) {
	findings, err := run(".", []string{"testdata/violation"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"append to hbase.Cells",
		"write through hbase.Cells element",
		"write through hbase.Cells element",
		"full slice expression on hbase.Cells",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for _, f := range findings {
		if strings.Contains(f, "ownedMutation") {
			t.Errorf("owner-annotated function flagged: %s", f)
		}
	}
	matched := 0
	for _, w := range want {
		for _, f := range findings {
			if strings.Contains(f, w) {
				matched++
				break
			}
		}
	}
	if matched != len(want) {
		t.Fatalf("missing expected findings in:\n%s", strings.Join(findings, "\n"))
	}
}

// The package that defines the rule's legitimate owners must come out
// clean — the annotations at the declaration sites cover every mutation
// cellsvet would otherwise flag.
func TestHBasePackageIsClean(t *testing.T) {
	findings, err := run(".", []string{"../../internal/hbase"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("internal/hbase not clean:\n%s", strings.Join(findings, "\n"))
	}
}

// An external test package is checked against the package with its
// in-package test files, as go test builds it: internal/synergy's external
// tests reach it through export_test.go and through internal/tpcw, which
// imports it and is checked again against it.
func TestExternalTestSeesInPackageTestFiles(t *testing.T) {
	if _, err := run(".", []string{"../../internal/synergy"}); err != nil {
		t.Fatal(err)
	}
}
