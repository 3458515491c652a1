package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestExperimentsRun executes every experiment driver end to end with a
// small seed count and sanity-checks the tables they produce.
func TestExperimentsRun(t *testing.T) {
	for _, exp := range Experiments(1) {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tbl, err := exp.Run()
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
			var sb strings.Builder
			if err := tbl.Render(&sb); err != nil {
				t.Fatalf("%s: render: %v", exp.ID, err)
			}
			t.Logf("\n%s", sb.String())
		})
	}
}

// TestE2WithinGammaBudget checks every E2 row against the contraction
// budget its round count assumes: the single-round adversarial search and
// the worst measured end-to-end rate must not exceed the gamma that
// core.Params resolves for the row's protocol (DefaultGamma: Gamma is
// unset in E2), plus slack for the table's decimal rounding.
func TestE2WithinGammaBudget(t *testing.T) {
	tbl, err := E2Convergence(1)
	if err != nil {
		t.Fatal(err)
	}
	protos := map[string]core.Protocol{}
	for _, p := range []core.Protocol{core.ProtoCrash, core.ProtoByzTrim, core.ProtoWitness, core.ProtoSync} {
		protos[p.String()] = p
	}
	col := map[string]int{}
	for i, h := range tbl.Columns {
		col[h] = i
	}
	for _, row := range tbl.Rows {
		proto, ok := protos[row[col["protocol"]]]
		if !ok {
			t.Fatalf("row %v: unknown protocol", row)
		}
		gamma := (&core.Params{Protocol: proto}).DefaultGamma()
		for _, h := range []string{"search-1round", "measured-e2e"} {
			cell := row[col[h]]
			if cell == "-" {
				continue // no single-round search for the witness protocol
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %v: %s %q: %v", row, h, cell, err)
			}
			if v > gamma+1e-9 {
				t.Errorf("%s n=%s t=%s: %s = %v exceeds gamma %v",
					row[col["protocol"]], row[col["n"]], row[col["t"]], h, v, gamma)
			}
		}
	}
}
