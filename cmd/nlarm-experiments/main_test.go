package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nlarm/internal/harness"
)

// usage returns the -h text.
func usage(t *testing.T) string {
	t.Helper()
	fs := flag.NewFlagSet("nlarm-experiments", flag.ContinueOnError)
	var b strings.Builder
	fs.SetOutput(&b)
	newFlags(fs)
	if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	return b.String()
}

func TestFlagsUnchanged(t *testing.T) {
	fs := flag.NewFlagSet("nlarm-experiments", flag.ContinueOnError)
	newFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cpuprofile", "csv", "memprofile", "quick", "run", "seed",
		"sim-jobs", "sim-nodes", "sim-policy", "sim-spec", "sim-trace", "sim-util",
		"sweep-seeds", "sweep-workers"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
}

func TestHelpListsEveryArtifact(t *testing.T) {
	help := usage(t)
	for _, name := range runNames(false) {
		if !strings.Contains(help, name) {
			t.Errorf("-h does not mention %q:\n%s", name, help)
		}
	}
	csvHelp := help[strings.Index(help, "-csv "):strings.Index(help, "-memprofile ")]
	for _, a := range harness.Artifacts {
		if a.CSV != "" && !strings.Contains(csvHelp, a.Names[0]) {
			t.Errorf("-csv help does not list %q:\n%s", a.Names[0], csvHelp)
		}
	}
}

func TestResolve(t *testing.T) {
	if arts, err := resolve("all"); err != nil || len(arts) != len(harness.Artifacts) {
		t.Fatalf("all: %d artifacts, %v", len(arts), err)
	}
	for _, name := range runNames(false)[1:] {
		arts, err := resolve(name)
		if err != nil || len(arts) != 1 || !slices.Contains(arts[0].Names, name) {
			t.Fatalf("%s: %v, %v", name, arts, err)
		}
	}
	if _, err := resolve("nosuchartifact"); err == nil {
		t.Fatal("unknown -run name accepted")
	}
}

// TestDocumentedRunNamesResolve checks every nlarm-experiments -run name
// the docs and CI spell out. CI's one deliberately unknown name must
// stay unknown.
func TestDocumentedRunNamesResolve(t *testing.T) {
	re := regexp.MustCompile("(?:`|nlarm-experiments\\b[^\\n]*?)-run ([a-z0-9]+)")
	seen := 0
	for _, path := range []string{"../../.github/workflows/ci.yml", "../../README.md",
		"../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			seen++
			_, err := resolve(m[1])
			if m[1] == "nosuchartifact" {
				if err == nil {
					t.Errorf("%s: -run %s resolves", path, m[1])
				}
			} else if err != nil {
				t.Errorf("%s: %v", path, err)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no -run names found")
	}
}

// stable drops the wall-clock lines, as CI's paper-fidelity filter does.
func stable(s string) string {
	wall := regexp.MustCompile(`^sim sweep: [0-9]* runs on `)
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "wall time") && !wall.MatchString(line) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestCheapArtifactsDeterministic renders the sub-second artifacts twice
// at one seed; each listing must match to the byte.
func TestCheapArtifactsDeterministic(t *testing.T) {
	o := harness.DefaultOptions(42)
	o.Quick = true
	for _, name := range []string{"fig1", "fig2", "multicluster", "sim", "sweep"} {
		arts, err := resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]string
		for i := range out {
			res, err := arts[0].Run(harness.NewRuns(o))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[i] = stable(res.Render())
		}
		if out[0] != out[1] {
			t.Errorf("%s differs between runs:\n%s\n---\n%s", name, out[0], out[1])
		}
	}
}
