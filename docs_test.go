package repro

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// parseDir parses every non-test Go file of one directory.
func parseDir(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files[filepath.Base(name)] = f
		}
	}
	return files
}

// exportedDecls returns the exported top-level identifiers declared in
// the files (types, funcs, methods, consts, vars) and whether each
// declaration carries a doc comment. Methods are keyed Recv.Name, struct
// fields Type.Field; fields count as documented, since the coverage gate
// asks for comments on declarations only.
func exportedDecls(files map[string]*ast.File, only func(filename string) bool) map[string]bool {
	decls := map[string]bool{}
	for name, f := range files {
		if only != nil && !only(name) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						if !id.IsExported() {
							continue
						}
						key = id.Name + "." + key
					}
				}
				decls[key] = d.Doc != nil
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = s.Doc != nil || (len(d.Specs) == 1 && d.Doc != nil)
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									for _, n := range f.Names {
										if n.IsExported() {
											decls[s.Name.Name+"."+n.Name] = true
										}
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[n.Name] = s.Doc != nil || (len(d.Specs) == 1 && d.Doc != nil)
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// TestDocsIdentifiersExist is the docs gate half one: every repro.Xxx
// identifier mentioned in README.md or DESIGN.md must exist in the
// package (and a repro.Type.Member must be a method or field of it),
// every backticked pkg.Xxx whose pkg is a package under
// internal/ must exist in that package, and every internal/... package
// path mentioned must be a real directory — so the prose cannot drift
// from the code.
func TestDocsIdentifiersExist(t *testing.T) {
	decls := exportedDecls(parseDir(t, "."), nil)

	// Internal packages by name; their declarations are parsed on first
	// mention.
	pkgDirs := map[string]string{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			pkgDirs[d.Name()] = path
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgDecls := map[string]map[string]bool{}

	identRe := regexp.MustCompile(`\brepro\.([A-Z][A-Za-z0-9]*)(?:\.([A-Z][A-Za-z0-9]*))?`)
	codeRe := regexp.MustCompile("`[^`\n]+`")
	qualRe := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9]*)`)
	pathRe := regexp.MustCompile(`\binternal/[a-z][a-z0-9_/]*(?:\.go)?`)
	qualified := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range identRe.FindAllStringSubmatch(text, -1) {
			if _, ok := decls[m[1]]; !ok {
				t.Errorf("%s mentions repro.%s, which is not declared in package repro", doc, m[1])
			} else if _, ok := decls[m[1]+"."+m[2]]; m[2] != "" && !ok {
				t.Errorf("%s mentions repro.%s.%s, which is not a method or field of %s", doc, m[1], m[2], m[1])
			}
		}
		for _, code := range codeRe.FindAllString(text, -1) {
			for _, m := range qualRe.FindAllStringSubmatch(code, -1) {
				dir, ok := pkgDirs[m[1]]
				if !ok {
					continue
				}
				if pkgDecls[m[1]] == nil {
					pkgDecls[m[1]] = exportedDecls(parseDir(t, dir), nil)
				}
				qualified++
				if _, ok := pkgDecls[m[1]][m[2]]; !ok {
					t.Errorf("%s mentions %s.%s, which is not declared in %s", doc, m[1], m[2], dir)
				}
			}
		}
		for _, p := range pathRe.FindAllString(text, -1) {
			p = strings.TrimSuffix(p, "/")
			st, err := os.Stat(p)
			switch {
			case strings.HasSuffix(p, ".go"):
				if err != nil || st.IsDir() {
					t.Errorf("%s mentions %s, which is not a source file", doc, p)
				}
			default:
				if err != nil || !st.IsDir() {
					t.Errorf("%s mentions %s, which is not a package directory", doc, p)
				}
			}
		}
	}

	// Spot-check that the load-bearing names are really seen (guards
	// against the regexes silently matching nothing).
	for _, want := range []string{"SearchOptions", "ShardedIndex", "BuildConfig"} {
		if _, ok := decls[want]; !ok {
			t.Fatalf("sanity: %s not found among package decls", want)
		}
	}
	if qualified == 0 {
		t.Fatal("sanity: no backticked internal pkg.Ident found")
	}
}

// TestDocsMetricNamesExist is the docs gate's metric half: every
// backticked metric name cited in README.md or DESIGN.md is declared in
// BENCHMARK.json, so the prose cannot cite a number the benchmark does
// not report. A per-layer citation is `<layer>.<metric>`, its layer one
// BENCHMARK.json names and its metric snake_case with an underscore (so
// `search.go` is a file, not a metric); an end-to-end citation is a
// snake_case name whose first word begins an end-to-end metric's name.
// ROADMAP.md is exempt: it names planned metrics.
func TestDocsMetricNamesExist(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared, layers, stems := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, m := range bench.PerLayer {
		declared[m.Name] = true
		layers[strings.SplitN(m.Name, ".", 2)[0]] = true
	}
	for _, m := range bench.EndToEnd {
		declared[m.Name] = true
		stems[strings.SplitN(m.Name, "_", 2)[0]] = true
	}
	citeRe := regexp.MustCompile("`([a-z][a-z0-9]*)([._])([a-z0-9_]*[a-z0-9])`")
	cited := func(text string) []string {
		var names []string
		for _, m := range citeRe.FindAllStringSubmatch(text, -1) {
			if m[2] == "." && layers[m[1]] && strings.Contains(m[3], "_") || m[2] == "_" && stems[m[1]] {
				names = append(names, m[1]+m[2]+m[3])
			}
		}
		return names
	}
	// Guard against the matcher silently matching nothing, or code.
	sample := "`search.scan_us_per_chunk`, `latency_p999_ms`, `search.Walk`, `search.go`, `shards_down`"
	if got, want := cited(sample), []string{"search.scan_us_per_chunk", "latency_p999_ms"}; !slices.Equal(got, want) {
		t.Fatalf("sanity: cited(%q) = %q, want %q", sample, got, want)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited(string(data)) {
			if !declared[name] {
				t.Errorf("%s cites metric `%s`, which BENCHMARK.json does not declare", doc, name)
			}
		}
	}
}

// TestDocsDesignCitationsResolve is the docs gate half three: every
// "DESIGN.md §n" cited from a Go comment anywhere in the module (a chain
// like "DESIGN.md §5 and §7" cites each section) names a "## §n"
// heading that exists in DESIGN.md, so renumbering or deleting a
// section cannot leave dangling pointers in the code.
func TestDocsDesignCitationsResolve(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## §(\d+)\b`).FindAllStringSubmatch(string(data), -1) {
		headings[m[1]] = true
	}
	citeRe := regexp.MustCompile(`DESIGN\.md,? §\d+(?:(?:,| and| or) §\d+)*`)
	secRe := regexp.MustCompile(`§(\d+)`)
	cites := 0
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil || !strings.Contains(string(src), "DESIGN.md") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			// Text() joins a comment's lines, so a citation wrapped
			// across lines still matches.
			text := strings.Join(strings.Fields(cg.Text()), " ")
			for _, cite := range citeRe.FindAllString(text, -1) {
				for _, sec := range secRe.FindAllStringSubmatch(cite, -1) {
					cites++
					if !headings[sec[1]] {
						t.Errorf("%s cites DESIGN.md §%s, which has no \"## §%s\" heading", path, sec[1], sec[1])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guard against the regexes silently matching nothing.
	if len(headings) == 0 || cites == 0 {
		t.Fatalf("sanity: %d headings, %d citations found", len(headings), cites)
	}
}

// TestDocsGodocCoverage is the docs gate half two: every exported
// identifier of the facade files (repro.go, sharded.go, batch.go,
// cache.go) and of internal/shard, internal/server,
// internal/chunkcache, and internal/search/batchexec carries a doc
// comment, so the cost-model and ownership contracts stay stated at
// the declaration.
func TestDocsGodocCoverage(t *testing.T) {
	check := func(label string, decls map[string]bool) {
		for name, hasDoc := range decls {
			if !hasDoc {
				t.Errorf("%s: exported %s has no doc comment", label, name)
			}
		}
	}
	facade := func(name string) bool {
		return name == "repro.go" || name == "sharded.go" || name == "batch.go" || name == "cache.go"
	}
	check("package repro", exportedDecls(parseDir(t, "."), facade))
	check("internal/shard", exportedDecls(parseDir(t, filepath.Join("internal", "shard")), nil))
	check("internal/server", exportedDecls(parseDir(t, filepath.Join("internal", "server")), nil))
	check("internal/chunkcache", exportedDecls(parseDir(t, filepath.Join("internal", "chunkcache")), nil))
	check("internal/search/batchexec", exportedDecls(parseDir(t, filepath.Join("internal", "search", "batchexec")), nil))
}

// TestDocsCitedTestsExist is the docs gate's test half: every backticked
// Test*, Fuzz* or Benchmark* name in README.md or DESIGN.md is a function
// declared in one of the module's _test.go files (a name ending in * must
// begin one), so the prose cannot cite a deleted or misspelt test.
func TestDocsCitedTestsExist(t *testing.T) {
	declRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var declared []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if _, mod := os.Stat(filepath.Join(path, "go.mod")); err == nil && d.IsDir() && path != "." &&
			(mod == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir // another module, or no package
		}
		if err == nil && strings.HasSuffix(path, "_test.go") {
			var src []byte
			src, err = os.ReadFile(path)
			for _, m := range declRe.FindAllStringSubmatch(string(src), -1) {
				declared = append(declared, m[1])
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	codeRe := regexp.MustCompile("`[^`\n]+`")
	citeRe := regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`)
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeRe.FindAllString(string(data), -1) {
			for _, m := range citeRe.FindAllStringSubmatch(code, -1) {
				cited++
				if !slices.ContainsFunc(declared, func(name string) bool { return name == m[1] || m[2] == "*" && strings.HasPrefix(name, m[1]) }) {
					t.Errorf("%s cites `%s%s`, which no _test.go file in the module declares", doc, m[1], m[2])
				}
			}
		}
	}
	// Guard against the regexes silently matching nothing.
	if cited == 0 || !slices.Contains(declared, "TestDocsCitedTestsExist") {
		t.Fatalf("sanity: %d citations, %d declared tests", cited, len(declared))
	}
}
