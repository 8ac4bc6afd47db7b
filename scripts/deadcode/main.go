// Command deadcode fails when the module declares a function that none of
// its binaries link.
//
// It builds every main package of the module with inlining off
// (-gcflags=all=-l, so a function that is called survives as a symbol of
// its own), reads the text symbols of the binaries with `go tool nm`, and
// parses every non-test file of every non-main package. A declared function
// or method whose symbol is in no binary is dead, unless allow.txt (next to
// this file) lists it with a reason. An allowlist entry that names a linked
// or undeclared function is stale and fails the check too, so the list can
// only shrink with the code it excuses.
//
// Run it from anywhere inside the module:
//
//	go run ./scripts/deadcode
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one function or method declared in a non-main package.
type decl struct {
	sym   string // its symbol as `go tool nm` prints it, type parameters stripped
	pos   token.Position
	lines int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := goOutput("list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return err
	}
	if err := os.Chdir(strings.TrimSpace(root)); err != nil {
		return err
	}
	allow, err := readAllow(filepath.Join("scripts", "deadcode", "allow.txt"))
	if err != nil {
		return err
	}
	linked, err := linkedSymbols()
	if err != nil {
		return err
	}
	decls, err := declared()
	if err != nil {
		return err
	}

	var dead []decl
	unlinked := make(map[string]bool)
	for _, d := range decls {
		if linked[d.sym] {
			continue
		}
		unlinked[d.sym] = true
		if _, ok := allow[d.sym]; !ok {
			dead = append(dead, d)
		}
	}
	var stale []string
	for sym := range allow {
		if !unlinked[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Strings(stale)

	lines := 0
	for _, d := range dead {
		fmt.Printf("%s:%d: %s is linked into no binary (%d lines)\n", d.pos.Filename, d.pos.Line, d.sym, d.lines)
		lines += d.lines
	}
	for _, sym := range stale {
		fmt.Printf("allow.txt: stale entry %s (linked or no longer declared)\n", sym)
	}
	if len(dead) > 0 || len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions (%d lines) outside the allowlist, %d stale allowlist entries", len(dead), lines, len(stale))
	}
	fmt.Printf("deadcode: OK (%d functions declared, %d unlinked and allowlisted)\n", len(decls), len(unlinked))
	return nil
}

// readAllow reads the allowlist: one symbol per line followed by the reason
// it stays; blank lines and lines starting with '#' are skipped.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

// linkedSymbols builds every main package with inlining off and returns the
// union of the binaries' text symbols.
func linkedSymbols() (map[string]bool, error) {
	out, err := goOutput("list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	mains := strings.Fields(out)
	dir, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	linked := make(map[string]bool)
	for i, pkg := range mains {
		bin := filepath.Join(dir, fmt.Sprintf("bin%d", i))
		if _, err := goOutput("build", "-gcflags=all=-l", "-o", bin, pkg); err != nil {
			return nil, err
		}
		syms, err := goOutput("tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(syms, "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}
	return linked, nil
}

// declared parses the non-test files of every non-main package and returns
// their functions and methods, init and blank functions left out.
func declared() ([]decl, error) {
	out, err := goOutput("list", "-f", `{{if ne .Name "main"}}{{.ImportPath}}|{{.Dir}}|{{join .GoFiles "|"}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "|")
		pkg, dir := parts[0], parts[1]
		for _, name := range parts[2:] {
			path, err := filepath.Rel(cwd, filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				decls = append(decls, decl{
					sym:   pkg + "." + funcName(fn),
					pos:   start,
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	return decls, nil
}

// funcName is the symbol suffix the compiler gives fn: F, T.M or (*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// stripTypeArgs drops the bracketed type arguments of a generic
// instantiation, so F[go.shape.int] and (*T[go.shape.int]).M read F and
// (*T).M.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goOutput runs the go command and returns its standard output; on failure
// the error carries its standard error.
func goOutput(args ...string) (string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}
