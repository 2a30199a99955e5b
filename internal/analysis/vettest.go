package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file is an analysistest-style harness for the gammavet analyzers:
// testdata packages seed violations and annotate the offending lines with
//
//	// want "regexp"
//
// comments (several quoted patterns may follow one want). RunTest loads the
// package, runs the analyzer, and fails the test on any unmatched
// expectation or unexpected diagnostic.

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantPatRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// testLoader is shared by every test in the process, so the standard library
// is type-checked once, not once per test. A Loader is not safe for
// concurrent use: tests that take it must not run in parallel.
var testLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// RunTest applies analyzer a to the package in dir (relative to the caller's
// working directory) and checks its diagnostics against // want comments.
func RunTest(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	RunRuleTest(t, dir, a, "")
}

// RunRuleTest is RunTest restricted to one rule of a many-rule analyzer: only
// the diagnostics whose message, and the want patterns whose source, contain
// rule are compared. An empty rule compares everything. It returns the number
// of want patterns compared, so a caller can tell a rule that matched nothing.
func RunRuleTest(t *testing.T, dir string, a *Analyzer, rule string) int {
	t.Helper()
	loader, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(a, lp)
	if err != nil {
		t.Fatal(err)
	}
	expects, err := collectWants(lp.Fset, lp.Files)
	if err != nil {
		t.Fatal(err)
	}
	if rule != "" {
		diags = slices.DeleteFunc(diags, func(d Diagnostic) bool { return !strings.Contains(d.Message, rule) })
		expects = slices.DeleteFunc(expects, func(e expectation) bool { return !strings.Contains(e.re.String(), rule) })
	}

	for _, d := range diags {
		matched := false
		for i := range expects {
			e := &expects[i]
			if e.hit || e.file != filepath.Base(d.Pos.Filename) || e.line != d.Pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
	return len(expects)
}

func collectWants(fset *token.FileSet, files []*ast.File) ([]expectation, error) {
	var out []expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				pats := wantPatRe.FindAllString(m[1], -1)
				if len(pats) == 0 {
					continue // prose mentioning "want", not an expectation
				}
				for _, q := range pats {
					s, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
					}
					out = append(out, expectation{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}
