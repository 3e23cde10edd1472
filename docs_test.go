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
	"agentrec/internal/buyerserver"
	"agentrec/internal/coordinator"
	"agentrec/internal/loadgen"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/replnet"
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

// TestDocsWireVocabulary is the wire naming rule's one check: every
// exported field reachable from a type that crosses a wire — the /events
// and /metrics/snapshot bodies, the engine's journal records, tail replies,
// snapshot pages and ownership maps, the coordinator's lease wire, the
// BENCH documents, the owner-map frame, the consumer profile every WAL
// record, feed record, page and forwarded write carries, and the buyer
// server's durable rows — carries an explicit snake_case json key.
// replnet's unexported request frames are checked by replnet's own test.
func TestDocsWireVocabulary(t *testing.T) {
	leaves, faults := analysis.WireVocabulary(
		reflect.TypeFor[ops.Event](), reflect.TypeFor[ops.Snapshot](),
		reflect.TypeFor[recommend.JournalRecord](), reflect.TypeFor[recommend.TailResult](),
		reflect.TypeFor[recommend.SnapshotPage](), reflect.TypeFor[recommend.OwnershipMap](),
		reflect.TypeFor[coordinator.LeaseRequest](), reflect.TypeFor[coordinator.LeaseGrant](),
		reflect.TypeFor[loadgen.Scenario](), reflect.TypeFor[loadgen.ScenarioResult](),
		reflect.TypeFor[replnet.OwnerMapInfo](), reflect.TypeFor[profile.Profile](),
		reflect.TypeFor[buyerserver.UserRecord](), reflect.TypeFor[buyerserver.MBARecord](),
	)
	for _, f := range faults {
		t.Error(f)
	}
	if len(leaves) < 120 {
		t.Fatalf("the walk named only %d leaf fields, expected every wire root's vocabulary", len(leaves))
	}
}

// TestDocsStatsFieldNamesInDesign checks that every wire field of the ops
// event/snapshot model is named (in backticks) in DESIGN.md's event-plane
// vocabulary, so the agent-first naming story cannot drift from the shipped
// JSON.
func TestDocsStatsFieldNamesInDesign(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	tags, _ := analysis.WireVocabulary(reflect.TypeFor[ops.Event](), reflect.TypeFor[ops.Snapshot]())
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
	tags, _ := analysis.WireVocabulary(reflect.TypeFor[loadgen.Scenario](), reflect.TypeFor[loadgen.ScenarioResult]())
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
