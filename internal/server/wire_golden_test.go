package server

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire_bytes.golden from the current server")

// wireShape is one statement of the wire-byte golden.
type wireShape struct {
	id     string
	sql    string
	params []schema.Value
}

// wireShapes are the result-set shapes whose bytes on the wire are pinned:
// the TPC-W reads the benchmark's browse and order mixes send (Q1-Q11,
// R1-R4), the scan workload's S1-S5, and the shapes those do not reach — an
// aggregate with every function, literal select items on a single-table scan
// and on a join, and columns that are NULL in every row.
func wireShapes(data *tpcw.Data) []wireShape {
	var out []wireShape
	for _, st := range append(tpcw.JoinQueries(), tpcw.PointReads()...) {
		out = append(out, wireShape{st.ID, st.SQL, st.Params(data, sim.NewRNG(11).Derive(st.ID))})
	}
	return append(out,
		wireShape{"S1", "SELECT * FROM Customer", nil},
		wireShape{"S2", "SELECT c_id, c_uname, c_balance FROM Customer WHERE c_discount > ?", []schema.Value{0.25}},
		wireShape{"S3", "SELECT c_birthdate, COUNT(*) AS n, SUM(c_balance) AS bal FROM Customer GROUP BY c_birthdate", nil},
		wireShape{"S4", "SELECT * FROM Customer WHERE c_id >= ? AND c_id < ?", []schema.Value{int64(10), int64(20)}},
		wireShape{"S5", "SELECT c_id, c_uname FROM Customer LIMIT 100", nil},
		wireShape{"agg-all", `SELECT COUNT(*) AS n, COUNT(i_stock) AS c, SUM(i_stock) AS s, SUM(i_cost) AS sc,
			AVG(i_srp) AS a, MIN(i_cost) AS lo, MAX(i_title) AS hi FROM Item WHERE i_subject = ?`, []schema.Value{"ARTS"}},
		wireShape{"literal-stream", "SELECT c_id, 'lit', c_uname FROM Customer LIMIT 3", nil},
		wireShape{"literal-join", "SELECT a.a_id, 'lit', i.i_title AS title FROM Author a, Item i WHERE a.a_id = i.i_a_id AND i.i_id = ?", []schema.Value{int64(3)}},
		wireShape{"null-stream", "SELECT i_id, i_title, i_srp, i_page FROM Item WHERE i_id = ?", []schema.Value{int64(900001)}},
		wireShape{"null-sorted", "SELECT i_id, i_title, i_srp, i_page FROM Item WHERE i_id >= ? ORDER BY i_srp", []schema.Value{int64(900001)}},
		wireShape{"null-agg", "SELECT COUNT(i_page) AS n, SUM(i_srp) AS s, AVG(i_page) AS a, MIN(i_title) AS lo, MAX(i_srp) AS hi FROM Item WHERE i_id = ?", []schema.Value{int64(900001)}},
	)
}

// wireSystem deploys TPC-W over data, views on, for the wire shapes.
func wireSystem(t *testing.T, data *tpcw.Data) *synergy.System {
	t.Helper()
	sys, err := synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(), synergy.Config{BaseIndexes: tpcw.BaseIndexes()})
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
	// The row whose unset columns give the null-* shapes their all-NULL
	// result columns.
	if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse(
		"INSERT INTO Item (i_id, i_a_id, i_subject, i_stock, i_cost) VALUES (900001, 1, 'ARTS', 15, 3.5)"), nil); err != nil {
		t.Fatal(err)
	}
	return sys
}

// inlineParams renders a parameterized statement for COM_QUERY, which takes
// no placeholders: each ? becomes the literal of its value.
func inlineParams(sql string, params []schema.Value) string {
	var b strings.Builder
	for _, r := range sql {
		if r != '?' {
			b.WriteRune(r)
			continue
		}
		switch v := params[0].(type) {
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		case string:
			b.WriteString("'" + strings.ReplaceAll(v, "'", "''") + "'")
		}
		params = params[1:]
	}
	return b.String()
}

// readWireResult reads the result-set response of the command just sent and
// renders what the golden pins: the column count and wire types, the hash of
// the column-definition packets, and the count, total payload bytes and hash
// of the row packets.
func readWireResult(c *Client) (string, error) {
	p, err := c.pc.readPacket()
	if err != nil {
		return "", err
	}
	if len(p) > 0 && p[0] == 0xff {
		return "", parseErrPacket(p)
	}
	ncols, _, err := readLencInt(p, 0)
	if err != nil {
		return "", err
	}
	defs, rows := fnv.New64a(), fnv.New64a()
	var types []string
	for i := uint64(0); i < ncols; i++ {
		def, err := c.pc.readPacket()
		if err != nil {
			return "", err
		}
		defs.Write(def)
		_, typ, err := parseColumnDef(def)
		if err != nil {
			return "", err
		}
		types = append(types, fmt.Sprintf("%02x", typ))
	}
	if _, err := c.pc.readPacket(); err != nil { // EOF after defs
		return "", err
	}
	nrows, nbytes := 0, 0
	for {
		p, err := c.pc.readPacket()
		if err != nil {
			return "", err
		}
		if isEOFPacket(p) {
			break
		}
		if len(p) > 0 && p[0] == 0xff {
			return "", parseErrPacket(p)
		}
		nrows++
		nbytes += len(p)
		rows.Write(p)
	}
	return fmt.Sprintf("types=%s defs=%016x rows=%d rowbytes=%d rowhash=%016x",
		strings.Join(types, ","), defs.Sum64(), nrows, nbytes, rows.Sum64()), nil
}

// TestWireBytesGolden pins the bytes the server puts on the wire for every
// result-set shape, over both row protocols: it is what shows that a change to
// the executor's row model or to the encoders moved no byte it did not mean
// to. Every line carries stream=true, the file's record of the one delivery
// path, so that the lines of a buffered delivery it once pinned beside it went
// as deletions only. Regenerate with
// `go test ./internal/server -run TestWireBytesGolden -update`.
func TestWireBytesGolden(t *testing.T) {
	data := tpcw.Generate(40, 7)
	c := serveSystem(t, wireSystem(t, data))

	var got strings.Builder
	var err error
	for _, sh := range wireShapes(data) {
		for _, proto := range []string{"text", "binary"} {
			var st *ClientStmt
			if proto == "text" {
				err = c.command(append([]byte{comQuery}, inlineParams(sh.sql, sh.params)...))
			} else {
				if st, err = c.Prepare(sh.sql); err != nil {
					t.Fatalf("%s: prepare: %v", sh.id, err)
				}
				err = st.execute(sh.params)
			}
			if err != nil {
				t.Fatalf("%s %s: send: %v", sh.id, proto, err)
			}
			line, err := readWireResult(c)
			if err != nil {
				t.Fatalf("%s %s: %v", sh.id, proto, err)
			}
			if st != nil {
				st.Close()
			}
			fmt.Fprintf(&got, "%s %s stream=true %s\n", sh.id, proto, line)
		}
	}

	path := filepath.Join("testdata", "wire_bytes.golden")
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("wire output has %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("wire bytes diverge from golden\n got: %s\nwant: %s", gl[i], wl[i])
		}
	}
}
