package megadc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsExist keeps the top-level documents from sending a reader
// to a file that is not in the tree. It reads the backticked text of
// each document (inline code spans and fenced blocks), splits it into
// tokens, and checks every token that names a repository path: one
// with a '/' that ends in a source, data, script, workflow or Markdown
// extension, or one that starts with a top-level directory.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docPaths(string(text)) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s cites `%s`, which does not exist", doc, p)
			}
		}
	}
}

var (
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	goSymbol    = regexp.MustCompile(`\.[A-Z][^/]*$`)
	pathExts    = []string{".go", ".json", ".sh", ".yml", ".md"}
	topLevelDir = []string{".github/", "bench/", "cmd/", "examples/", "internal/", "scripts/", "tools/"}
)

// docPaths returns the repository paths cited in the backticked text of
// a Markdown document, in order of appearance.
func docPaths(text string) []string {
	var code []string
	for i, part := range strings.Split(text, "```") {
		if i%2 == 1 { // inside a fenced block
			code = append(code, part)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(part, -1) {
			code = append(code, m[1])
		}
	}
	var paths []string
	for _, c := range code {
		for _, tok := range strings.FieldsFunc(c, func(r rune) bool {
			return strings.ContainsRune(" \t\n()[],;|\"'=", r)
		}) {
			if p, ok := repoPath(tok); ok {
				paths = append(paths, p)
			}
		}
	}
	return paths
}

// repoPath normalizes one token and reports whether it names a path
// relative to the repository root.
func repoPath(tok string) (string, bool) {
	tok = strings.TrimPrefix(tok, "./")
	if !strings.Contains(tok, "/") || strings.HasPrefix(tok, "/") {
		return "", false
	}
	for _, ext := range pathExts {
		if strings.HasSuffix(tok, ext) {
			return tok, true
		}
	}
	// A Go symbol such as internal/profiling.Flags names its package.
	if m := goSymbol.FindStringIndex(tok); m != nil {
		tok = tok[:m[0]]
	}
	for _, dir := range topLevelDir {
		if strings.HasPrefix(tok, dir) {
			return tok, true
		}
	}
	return "", false
}
