package analysis

// The fixture harness: each analyzer has a tree under
// testdata/<name>/src/<import-path>/ whose packages are type-checked under
// their REAL import paths (so the analyzers' package- and file-scope rules
// fire exactly as they do on the repo), with expectations written as
//
//	someCode() // want `regexp`
//
// comments on the offending line. Fixture imports resolve against the real
// module's compiled export data (one `go list -export -deps` per test
// process), so a fixture can import the real agentrec/internal/ops while a
// sibling fixture package shadows a repo path with pathological fakes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// moduleExports returns importPath -> export-data file for the module and
// every dependency the fixtures import, built once per test process.
func moduleExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		cmd := exec.Command("go", "list", "-e", "-export", "-deps",
			"-json=ImportPath,Export,Error",
			"./...", "sync", "time", "io", "fmt", "os", "sort", "math/rand/v2")
		cmd.Dir = "../.."
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			exportsErr = fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
			return
		}
		exportsMap = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct {
				ImportPath string
				Export     string
				Error      *struct{ Err string }
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				exportsErr = err
				return
			}
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatal(exportsErr)
	}
	return exportsMap
}

// wantRe extracts the expectation comment; backquoted groups inside are the
// regexes a diagnostic on that line must match.
var (
	wantRe     = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantPartRe = regexp.MustCompile("`([^`]+)`")
)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	met  bool
}

// runFixtures type-checks every package under testdata/<analyzer>/src and
// checks the analyzer's diagnostics against the // want expectations.
func runFixtures(t *testing.T, a *Analyzer) {
	t.Helper()
	src := filepath.Join("testdata", a.Name, "src")
	pkgDirs := fixturePackages(t, src)
	if len(pkgDirs) == 0 {
		t.Fatalf("no fixture packages under %s", src)
	}
	exports := moduleExports(t)

	for _, dir := range pkgDirs {
		importPath := filepath.ToSlash(strings.TrimPrefix(dir, src+string(filepath.Separator)))
		fset := token.NewFileSet()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		var paths []string
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parsing fixture %s: %v", path, err)
			}
			files = append(files, f)
			paths = append(paths, path)
		}
		expects := collectWants(t, paths)

		pkg, err := checkFiles(fset, files, importPath, dir, exportImporter(fset, exports))
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", importPath, err)
		}
		diags, err := RunAnalyzers([]*Analyzer{a}, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, importPath, err)
		}

		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if !matchExpectation(expects, filepath.Base(pos.Filename), pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic at %s:%d: %s [%s]",
					importPath, filepath.Base(pos.Filename), pos.Line, d.Message, d.Analyzer)
			}
		}
		for _, e := range expects {
			if !e.met {
				t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none",
					importPath, e.re, e.file, e.line)
			}
		}
	}
}

func matchExpectation(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.met && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.met = true
			return true
		}
	}
	return false
}

// collectWants reads each fixture file's source and pulls the // want
// expectations out by line.
func collectWants(t *testing.T, paths []string) []*expectation {
	t.Helper()
	var out []*expectation
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			parts := wantPartRe.FindAllStringSubmatch(m[1], -1)
			if len(parts) == 0 {
				t.Fatalf("%s:%d: want comment has no backquoted regexp", path, i+1)
			}
			for _, p := range parts {
				re, err := regexp.Compile(p[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, p[1], err)
				}
				out = append(out, &expectation{file: filepath.Base(path), line: i + 1, re: re})
			}
		}
	}
	return out
}

// fixturePackages returns every directory under src containing .go files.
func fixturePackages(t *testing.T, src string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}
