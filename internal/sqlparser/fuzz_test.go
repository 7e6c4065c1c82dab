package sqlparser_test

import (
	"testing"

	"synergy/internal/sqlparser"
	"synergy/internal/tpcw"
)

// FuzzParseRoundTrip holds the printer to the parser: for any input that
// parses, printing the statement and parsing the print gives a statement that
// prints the same. A slave's WAL logs statements printed and recovery parses
// them again, so a print the parser reads differently replays a different
// write, or none. Seeded with every TPC-W statement and a quoted literal.
func FuzzParseRoundTrip(f *testing.F) {
	for _, sql := range tpcw.WorkloadSQL() {
		f.Add(sql)
	}
	f.Add("SELECT * FROM t WHERE y <> 'a''b'")
	f.Fuzz(func(t *testing.T, src string) {
		s1, err := sqlparser.Parse(src)
		if err != nil {
			return
		}
		printed := s1.String()
		s2, err := sqlparser.Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := s2.String(); again != printed {
			t.Fatalf("%q prints as %q, which prints as %q", src, printed, again)
		}
	})
}
