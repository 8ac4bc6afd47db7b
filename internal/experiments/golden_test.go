package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current code")

// TestPaperGolden renders the paper's reproduction at full size — the
// datasets, trial counts and seed prqbench uses by default, with the exact
// evaluator — and diffs it against testdata/paper.golden: Tables I–III,
// figures 13–16's regions, figure 17, the §V-B.3 sweep and the iostats page
// counts. Table I's seconds are wall-clock and are masked to zero; every
// other number is deterministic. The catalog ablation is left out: at full
// size it takes seconds, and its U-catalogs are reached only through this
// package, never from a DB.
//
// A change that moves a number here must rewrite the golden (go test
// ./internal/experiments -run TestPaperGolden -update) and say why.
func TestPaperGolden(t *testing.T) {
	cfg := Config{Seed: 1, Evaluator: EvalExact}
	var buf bytes.Buffer
	section := func(name string, render func(io.Writer) error) {
		fmt.Fprintf(&buf, "==== %s\n", name)
		if err := render(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf.WriteString("\n")
	}
	section("table1 table2", func(w io.Writer) error {
		res, err := RunTables12(cfg, nil)
		if err != nil {
			return err
		}
		for _, cells := range res.Cells {
			for s, c := range cells {
				c.TimeSeconds = 0
				cells[s] = c
			}
		}
		res.Render(w)
		return nil
	})
	section("table3", func(w io.Writer) error {
		res, err := RunTable3(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(w)
		return nil
	})
	for _, fig := range []struct {
		name  string
		gamma float64
	}{{"fig13 fig14", 10}, {"fig15", 1}, {"fig16", 100}} {
		section(fig.name, func(w io.Writer) error {
			res, err := RunRegions(fig.gamma)
			if err != nil {
				return err
			}
			res.Render(w)
			return nil
		})
	}
	section("fig17", func(w io.Writer) error {
		res, err := RunFig17()
		if err != nil {
			return err
		}
		res.Render(w)
		return nil
	})
	section("sweep", func(w io.Writer) error {
		res, err := RunSweep(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(w)
		return nil
	})
	section("iostats", func(w io.Writer) error {
		res, err := RunIOStats(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(w)
		return nil
	})

	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
