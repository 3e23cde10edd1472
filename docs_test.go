package agentrec

// Docs gate: README.md and DESIGN.md are checked against the shipped code
// so the written story cannot silently drift — every relative link
// resolves, every platformd flag the README documents exists (and none is
// missing), and the sections other documents promise are present. CI runs
// this alongside `go build ./examples/...`.

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"agentrec/internal/analysis"
	"agentrec/internal/loadgen"
	"agentrec/internal/ops"
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("required document missing: %v", err)
	}
	return string(data)
}

// TestDocsLinksResolve checks every relative markdown link target in
// README.md and DESIGN.md exists in the repository.
func TestDocsLinksResolve(t *testing.T) {
	linkRe := regexp.MustCompile(`\]\(([^)#]+)(#[^)]*)?\)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, m := range linkRe.FindAllStringSubmatch(readDoc(t, doc), -1) {
			target := m[1]
			if strings.Contains(target, "://") {
				continue // external
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q which does not exist", doc, target)
			}
		}
	}
}

// TestReadmeFlagReferenceMatchesPlatformd cross-checks the README flag
// table against the flags cmd/platformd actually defines, both ways.
func TestReadmeFlagReferenceMatchesPlatformd(t *testing.T) {
	readme := readDoc(t, "README.md")
	src := readDoc(t, filepath.Join("cmd", "platformd", "main.go"))

	defRe := regexp.MustCompile(`flag\.(?:Int|String|Bool|Duration|Float64)\("([^"]+)"`)
	defined := make(map[string]bool)
	for _, m := range defRe.FindAllStringSubmatch(src, -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatal("found no flag definitions in cmd/platformd/main.go")
	}

	// Flags documented in the README table rows: | `-name` | ...
	rowRe := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	documented := make(map[string]bool)
	for _, m := range rowRe.FindAllStringSubmatch(readme, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("README.md flag reference table not found")
	}

	for name := range documented {
		if !defined[name] {
			t.Errorf("README documents flag -%s which platformd does not define", name)
		}
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("platformd defines flag -%s which the README flag reference omits", name)
		}
	}
}

// jsonLeafTags collects the json tag names of every leaf (non-struct)
// field reachable from v's type, recursing through pointers, slices, and
// nested structs. Container fields (the nested struct itself) carry no
// data of their own, so only leaves must appear in the documentation.
func jsonLeafTags(t *testing.T, typ reflect.Type, into map[string]bool) {
	t.Helper()
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Map {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		elem := f.Type
		for elem.Kind() == reflect.Pointer || elem.Kind() == reflect.Slice || elem.Kind() == reflect.Map {
			elem = elem.Elem()
		}
		if elem.Kind() == reflect.Struct {
			jsonLeafTags(t, elem, into)
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			t.Errorf("%s.%s has no json tag: every wire field must be named explicitly", typ, f.Name)
			continue
		}
		into[tag] = true
	}
}

// TestDocsStatsFieldNamesInDesign checks that every wire field of the ops
// event/snapshot model is named (in backticks) in DESIGN.md's event-plane
// vocabulary, so the agent-first naming story cannot drift from the shipped
// JSON.
func TestDocsStatsFieldNamesInDesign(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	tags := make(map[string]bool)
	for _, v := range []any{ops.Event{}, ops.Snapshot{}} {
		jsonLeafTags(t, reflect.TypeOf(v), tags)
	}
	if len(tags) < 20 {
		t.Fatalf("walker found only %d tags, expected the full stats/event vocabulary", len(tags))
	}
	for tag := range tags {
		if !strings.Contains(design, "`"+tag+"`") {
			t.Errorf("DESIGN.md does not document wire field `%s`", tag)
		}
	}
}

// TestDocsLoadgenSchemaInDesign checks that every wire field of the
// scenario document and the BENCH result document is named (in backticks)
// in DESIGN.md's "Load harness" section, so the committed trajectory
// schema cannot drift from the docs.
func TestDocsLoadgenSchemaInDesign(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	tags := make(map[string]bool)
	for _, v := range []any{loadgen.Scenario{}, loadgen.ScenarioResult{}} {
		jsonLeafTags(t, reflect.TypeOf(v), tags)
	}
	if len(tags) < 40 {
		t.Fatalf("walker found only %d tags, expected the full scenario/result vocabulary", len(tags))
	}
	for tag := range tags {
		if !strings.Contains(design, "`"+tag+"`") {
			t.Errorf("DESIGN.md does not document wire field `%s`", tag)
		}
	}
}

// TestReadmeRecbenchFlagsDocumented cross-checks that every flag
// cmd/recbench defines is mentioned in the README (the scenario harness
// is driven entirely through recbench, so an undocumented flag is an
// invisible one).
func TestReadmeRecbenchFlagsDocumented(t *testing.T) {
	readme := readDoc(t, "README.md")
	src := readDoc(t, filepath.Join("cmd", "recbench", "main.go"))
	defRe := regexp.MustCompile(`flag\.(?:Int|String|Bool|Duration|Float64)\("([^"]+)"`)
	defined := make(map[string]bool)
	for _, m := range defRe.FindAllStringSubmatch(src, -1) {
		defined[m[1]] = true
	}
	for _, want := range []string{"scenario", "rate", "duration", "servers", "users", "workers", "state-dir", "quick", "out"} {
		if !defined[want] {
			t.Errorf("cmd/recbench does not define the promised -%s flag", want)
		}
	}
	for name := range defined {
		if !strings.Contains(readme, "`-"+name+"`") {
			t.Errorf("README.md does not document recbench flag -%s", name)
		}
	}
}

// TestBenchScenarioDocsValid is the BENCH_<scenario>.json schema gate.
// By default it validates the committed trajectory files in the repo root
// and requires the scenarios the roadmap promises; CI's scenario smoke
// job points BENCH_SCENARIO_GLOB at freshly emitted documents instead,
// failing the build on any schema break or error-count regression.
func TestBenchScenarioDocsValid(t *testing.T) {
	glob := os.Getenv("BENCH_SCENARIO_GLOB")
	committed := glob == ""
	if committed {
		glob = "BENCH_*.json"
	}
	paths, err := filepath.Glob(glob)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]*loadgen.ScenarioResult)
	for _, path := range paths {
		res, err := loadgen.ReadResult(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := res.Check(); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		found[res.Scenario] = res
	}
	if len(found) == 0 {
		t.Fatalf("no scenario documents matched %q", glob)
	}
	if !committed {
		return
	}
	// The committed trajectory must cover the promised scenarios, from
	// replicated multi-server runs, with their special sections present.
	for _, want := range []string{"flash-sale", "cold-follower", "failover", "shilling"} {
		res := found[want]
		if res == nil {
			t.Errorf("committed trajectory is missing BENCH_%s.json", want)
			continue
		}
		if res.Servers < 2 {
			t.Errorf("%s: committed run used %d server(s), want a replicated >=2-server run", want, res.Servers)
		}
	}
	if res := found["cold-follower"]; res != nil {
		if res.ColdFollower == nil || res.ColdFollower.PagesPulled == 0 {
			t.Error("cold-follower trajectory has no paged bootstrap measurement")
		}
	}
	if res := found["failover"]; res != nil {
		switch fo := res.Failover; {
		case fo == nil:
			t.Error("failover trajectory has no failover section")
		case fo.PromotedEpoch < 2:
			t.Errorf("failover trajectory never advanced the ownership map (epoch %d)", fo.PromotedEpoch)
		case fo.LostAckedWrites != 0:
			t.Errorf("failover trajectory lost %d acknowledged writes", fo.LostAckedWrites)
		case fo.DivergentShards != 0:
			t.Errorf("failover trajectory has %d divergent shards", fo.DivergentShards)
		}
	}
	if res := found["shilling"]; res != nil {
		if res.Shilling == nil || res.Shilling.Probes == 0 {
			t.Error("shilling trajectory has no rank-displacement measurement")
		}
	}
}

// TestReadmePromisedSectionsExist pins the structural promises: the
// README's quickstart points at a real example, and DESIGN.md carries the
// Replication and Durability sections the README links into.
func TestReadmePromisedSectionsExist(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, want := range []string{"examples/quickstart", "-state-dir", "-buyer-peers", "DESIGN.md"} {
		if !strings.Contains(readme, want) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
	if !strings.Contains(readme, "## Load & scenarios") {
		t.Error("README.md does not contain the Load & scenarios section")
	}
	design := readDoc(t, "DESIGN.md")
	for _, want := range []string{"## Replication", "## Durability", "## Neighbor search", "## Load harness", "prof/<shard>", "purch/<shard>", "sell/<shard>", "coordinated omission"} {
		if !strings.Contains(design, want) {
			t.Errorf("DESIGN.md does not contain %q", want)
		}
	}
}

// TestDocsAnalyzersInDesign checks that DESIGN.md's "Static analysis"
// section names every analyzer cmd/agentlint ships (and documents the
// suppression grammar), so the lint suite cannot grow or rename silently.
func TestDocsAnalyzersInDesign(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	idx := strings.Index(design, "## Static analysis")
	if idx < 0 {
		t.Fatal(`DESIGN.md has no "## Static analysis" section`)
	}
	section := design[idx:]
	if next := strings.Index(section[3:], "\n## "); next >= 0 {
		section = section[:next+3]
	}
	for _, a := range analysis.All() {
		if !strings.Contains(section, "`"+a.Name+"`") {
			t.Errorf("DESIGN.md Static analysis section does not document analyzer `%s`", a.Name)
		}
	}
	if !strings.Contains(section, "agentlint:allow") {
		t.Error("DESIGN.md Static analysis section does not document the agentlint:allow suppression grammar")
	}
}
