package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles agentlint into a temp dir once per test process.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "agentlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building agentlint: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneList checks the multichecker's -list output names every
// analyzer in the suite.
func TestStandaloneList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, name := range []string{"lockorder", "determinism", "buspublish", "errflow"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

// TestStandaloneFindsViolation checks the standalone mode's exit-1 path on
// a throwaway module with a planted violation.
func TestStandaloneFindsViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and a scratch module")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module agentrec\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "internal", "kvstore", "store.go"), `package kvstore

type Store struct{}

func (s *Store) Put(k, v []byte) error { return nil }

func drop(s *Store) {
	s.Put(nil, nil)
}
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected exit 1 on a planted violation, got success:\n%s", out)
	}
	if !strings.Contains(string(out), "[errflow]") || !strings.Contains(string(out), "Store.Put") {
		t.Fatalf("expected an errflow diagnostic for Store.Put, got:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
