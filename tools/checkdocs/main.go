// Command checkdocs is the docs gate CI runs (.github/workflows/ci.yml):
//
//  1. every non-test package under internal/, ento/, and cmd/ must
//     carry a package (godoc) comment;
//  2. every relative markdown link in the repo root and docs/ must
//     resolve to an existing file;
//  3. the board-file schema documented in DESIGN.md §11 must cover
//     every JSON field of mcu.BoardFile / mcu.Arch / mcu.ModelParams,
//     so the Go structs and the docs cannot drift apart;
//  4. the failure-model guide (docs/robustness.md) must document every
//     JSON field of the export's failures block (report.JSONFailure),
//     every cell status, and the sweep failure counters by their exact
//     names;
//  5. the server guide (docs/server.md) must document every route
//     entobenchd registers (server.Routes()), every field of the
//     exported wire structs, every SSE event name, and the server and
//     sweep-cache counters — and docs/observability.md must carry
//     every canonical counter name, so a counter cannot ship without
//     its row;
//  6. the backend guide (docs/backends.md) must document every
//     trace-capture CSV column, both provenance labels, every method
//     of the harness.Backend interface, and every field of the
//     export's backends block (report.JSONBackend);
//  7. every backticked `pkg.Name` in README.md, DESIGN.md, and
//     docs/*.md — inline code spans and fenced code blocks alike —
//     whose pkg is ento or a package under internal/ must name an
//     exported top-level declaration of that package, so no doc can
//     keep naming a deleted or never-written entry point.
//
// It prints one line per violation and exits non-zero if any exist.
// Run it from the repository root: go run ./tools/checkdocs
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
)

func main() {
	var problems []string
	problems = append(problems, checkPackageComments([]string{"internal", "ento", "cmd"})...)
	problems = append(problems, checkMarkdownLinks()...)
	problems = append(problems, checkBoardSchemaDocs("DESIGN.md")...)
	problems = append(problems, checkRobustnessDocs("docs/robustness.md")...)
	problems = append(problems, checkServerDocs("docs/server.md")...)
	problems = append(problems, checkCounterDocs("docs/observability.md")...)
	problems = append(problems, checkBackendDocs("docs/backends.md")...)
	problems = append(problems, checkDocIdentifiers([]string{"ento", "internal"}, []string{"README.md", "DESIGN.md", "docs/*.md"})...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "checkdocs: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("checkdocs: ok")
}

// checkPackageComments walks the given roots and reports every non-test
// package with no doc comment on any of its files.
func checkPackageComments(roots []string) []string {
	var problems []string
	for _, root := range roots {
		filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || !info.IsDir() {
				return nil
			}
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				return nil
			}
			for name, pkg := range pkgs {
				if strings.HasSuffix(name, "_test") {
					continue
				}
				documented := false
				for _, f := range pkg.Files {
					if f.Doc != nil {
						documented = true
						break
					}
				}
				if !documented {
					problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", path, name))
				}
			}
			return nil
		})
	}
	return problems
}

// checkBoardSchemaDocs verifies the board-file schema documentation:
// every JSON field the decoder accepts (the tags on mcu.BoardFile,
// mcu.Arch, and mcu.ModelParams) must be named, in backticks, inside
// the "Data-driven board & kernel registries" section of DESIGN.md.
func checkBoardSchemaDocs(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	const heading = "board & kernel registries"
	start := -1
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "## ") && strings.Contains(line, heading) {
			start = i
			break
		}
	}
	if start < 0 {
		return []string{fmt.Sprintf("%s: no \"## ... %s\" section (the board-file schema must be documented)", path, heading)}
	}
	section := ""
	for _, line := range lines[start+1:] {
		if strings.HasPrefix(line, "## ") {
			break
		}
		section += line + "\n"
	}
	var problems []string
	for _, t := range []reflect.Type{
		reflect.TypeOf(mcu.BoardFile{}),
		reflect.TypeOf(mcu.Arch{}),
		reflect.TypeOf(mcu.ModelParams{}),
	} {
		for _, tag := range jsonTags(t) {
			if !strings.Contains(section, "`"+tag+"`") {
				problems = append(problems, fmt.Sprintf(
					"%s: board-schema section does not document %s field `%s`", path, t.Name(), tag))
			}
		}
	}
	return problems
}

// checkRobustnessDocs pins the failure-model guide to the code: every
// JSON field of the export's failures block, every non-zero cell
// status, and each sweep failure counter must be named, in backticks,
// somewhere in docs/robustness.md.
func checkRobustnessDocs(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (the failure model must be documented)", path, err)}
	}
	doc := string(data)
	var problems []string
	missing := func(kind, name string) {
		if !strings.Contains(doc, "`"+name+"`") {
			problems = append(problems, fmt.Sprintf("%s: does not document %s `%s`", path, kind, name))
		}
	}
	for _, tag := range jsonTags(reflect.TypeOf(report.JSONFailure{})) {
		missing("failures-block field", tag)
	}
	for _, s := range []core.CellStatus{core.CellOK, core.CellFailed, core.CellPanicked, core.CellTimedOut, core.CellSkipped} {
		missing("cell status", s.String())
	}
	for _, name := range []string{
		obs.CounterSweepCellsFailed,
		obs.CounterSweepPanicsRecovered,
		obs.CounterSweepCellsTimedOut,
		obs.CounterCellstoreGCEvicted,
		obs.CounterCellstoreDegraded,
		obs.CounterServerShedTotal,
	} {
		missing("counter", name)
	}
	// The service guarantees under resource pressure: degraded-mode
	// serving and load shedding must be part of the failure model.
	missing("healthz state", "degraded")
	missing("shed header", "Retry-After")
	return problems
}

// checkServerDocs pins the entobenchd guide to the wire surface:
// every registered route (method + pattern, in backticks, exactly as
// server.Routes() declares it), every JSON field of the exported wire
// structs, every SSE event name, the sweep-id header, and the counters
// a server operator watches must all be named in docs/server.md.
func checkServerDocs(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (the wire surface must be documented)", path, err)}
	}
	doc := string(data)
	var problems []string
	missing := func(kind, name string) {
		if !strings.Contains(doc, "`"+name+"`") {
			problems = append(problems, fmt.Sprintf("%s: does not document %s `%s`", path, kind, name))
		}
	}
	for _, r := range server.Routes() {
		missing("route", r.Method+" "+r.Pattern)
	}
	for _, t := range []reflect.Type{
		reflect.TypeOf(server.SweepRequest{}),
		reflect.TypeOf(server.SweepAccepted{}),
		reflect.TypeOf(server.SweepStatus{}),
		reflect.TypeOf(server.Kernel{}),
		reflect.TypeOf(server.ErrorBody{}),
	} {
		for _, tag := range jsonTags(t) {
			missing(t.Name()+" field", tag)
		}
	}
	for _, ev := range []string{server.SSEEventProgress, server.SSEEventDone, server.SSEEventError} {
		missing("SSE event", ev)
	}
	missing("response header", server.SweepIDHeader)
	// The overload surface: shed responses carry Retry-After, error
	// bodies carry machine-readable codes, job states include the
	// queue/shed lifecycle, and /healthz distinguishes ok from degraded.
	missing("response header", "Retry-After")
	for _, code := range []string{server.ErrCodeBadRequest, server.ErrCodeOverloaded, server.ErrCodeDeadlineExceeded} {
		missing("error code", code)
	}
	for _, st := range []string{server.StateQueued, server.StateRunning, server.StateDone, server.StateFailed, server.StateShed} {
		missing("job state", st)
	}
	missing("healthz state", "degraded")
	for _, name := range []string{
		obs.CounterServerRequests,
		obs.CounterServerSSEClients,
		obs.CounterServerShedTotal,
		obs.CounterServerQueueDepth,
		obs.CounterSweepCacheHit,
		obs.CounterSweepCacheMiss,
		obs.CounterSweepCacheCoalesced,
		obs.CounterSweepCacheEvicted,
		obs.CounterCellstoreGCEvicted,
		obs.CounterCellstoreDegraded,
	} {
		missing("counter", name)
	}
	return problems
}

// checkBackendDocs pins the measurement-backend guide to the code:
// every trace-capture CSV column, both provenance labels, every
// method of the Backend interface, and every JSON field of the
// export's backends block must be named, in backticks, in
// docs/backends.md.
func checkBackendDocs(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (the backend seam must be documented)", path, err)}
	}
	doc := string(data)
	var problems []string
	missing := func(kind, name string) {
		if !strings.Contains(doc, "`"+name+"`") {
			problems = append(problems, fmt.Sprintf("%s: does not document %s `%s`", path, kind, name))
		}
	}
	for _, col := range harness.TraceCSVHeader {
		missing("trace CSV column", col)
	}
	for _, label := range []string{harness.SourceModeled, harness.SourceMeasured} {
		missing("provenance label", label)
	}
	bt := reflect.TypeOf((*harness.Backend)(nil)).Elem()
	for i := 0; i < bt.NumMethod(); i++ {
		missing("Backend method", bt.Method(i).Name)
	}
	for _, tag := range jsonTags(reflect.TypeOf(report.JSONBackend{})) {
		missing("backends-block field", tag)
	}
	return problems
}

// checkCounterDocs requires a docs/observability.md row (backticked
// name) for every canonical counter and span — the doc half of the
// obs registry gate, enforced here so `go run ./tools/checkdocs`
// catches the drift without running the test suite.
func checkCounterDocs(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (the observable surface must be documented)", path, err)}
	}
	doc := string(data)
	var problems []string
	for _, name := range obs.AllCounters {
		if !strings.Contains(doc, "`"+name+"`") {
			problems = append(problems, fmt.Sprintf("%s: does not document counter `%s`", path, name))
		}
	}
	for _, name := range obs.AllSpans {
		if !strings.Contains(doc, "`"+name+"`") {
			problems = append(problems, fmt.Sprintf("%s: does not document span `%s`", path, name))
		}
	}
	return problems
}

// docIdent matches a qualified identifier `pkg.Name` inside code: a
// lowercase package name not itself preceded by a selector or
// identifier character, then an exported name.
var docIdent = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)`)

// codeSpan matches one inline markdown code span.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// checkDocIdentifiers reports every qualified identifier in the code of
// the given markdown files whose package is one of the repo's own
// (declared under roots) but which names no exported top-level
// declaration of that package. Identifiers of other packages (the
// standard library, locals in examples) are not checked.
func checkDocIdentifiers(roots, globs []string) []string {
	var problems []string
	exported := map[string]map[string]bool{} // package name → exported names
	for _, root := range roots {
		filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || !info.IsDir() {
				return nil
			}
			fset := token.NewFileSet()
			notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
			pkgs, err := parser.ParseDir(fset, path, notTest, parser.SkipObjectResolution)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				return nil
			}
			for name, pkg := range pkgs {
				if exported[name] == nil {
					exported[name] = map[string]bool{}
				}
				for _, f := range pkg.Files {
					for _, decl := range f.Decls {
						for _, id := range declNames(decl) {
							if id.IsExported() {
								exported[name][id.Name] = true
							}
						}
					}
				}
			}
			return nil
		})
	}
	var files []string
	for _, glob := range globs {
		m, _ := filepath.Glob(glob)
		files = append(files, m...)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			code := []string{line}
			if !inFence {
				code = code[:0]
				for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
					code = append(code, m[1])
				}
			}
			for _, c := range code {
				for _, m := range docIdent.FindAllStringSubmatch(c, -1) {
					if names, ok := exported[m[1]]; ok && !names[m[2]] {
						problems = append(problems, fmt.Sprintf("%s:%d: `%s.%s` is not an exported declaration of package %s", file, i+1, m[1], m[2], m[1]))
					}
				}
			}
		}
	}
	return problems
}

// declNames lists the identifiers a top-level declaration introduces:
// a function (not a method), or every type, const, and var it specs.
func declNames(decl ast.Decl) []*ast.Ident {
	var out []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			out = append(out, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, sp.Name)
			case *ast.ValueSpec:
				out = append(out, sp.Names...)
			}
		}
	}
	return out
}

// jsonTags lists the serialized field names of a struct type, skipping
// unexported and json:"-" fields and stripping tag options.
func jsonTags(t reflect.Type) []string {
	var tags []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" {
			continue
		}
		tag := f.Tag.Get("json")
		if comma := strings.IndexByte(tag, ','); comma >= 0 {
			tag = tag[:comma]
		}
		if tag == "" || tag == "-" {
			continue
		}
		tags = append(tags, tag)
	}
	return tags
}

// mdLink matches inline markdown links/images; the destination is
// group 1. Angle-bracketed autolinks and reference-style links are out
// of scope (the repo doesn't use them for files).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies that relative link targets in root-level
// and docs/ markdown files exist on disk.
func checkMarkdownLinks() []string {
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		m, _ := filepath.Glob(glob)
		files = append(files, m...)
	}
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if i2 := strings.IndexByte(target, '#'); i2 >= 0 {
					target = target[:i2]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", file, i+1, m[1]))
				}
			}
		}
	}
	return problems
}
