package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// locPackages is the deletion ledger's fixed list: the directories whose
// non-test Go lines are reported as loc.<name>. The list is frozen with the
// benchmark so the metric names never change; a directory a later change
// deletes reads 0, and Go files anywhere else (new packages) land in
// loc.other.
var locPackages = []struct{ name, dir string }{
	{"pgfmu", "."},
	{"driver", "driver"},
	{"cmd", "cmd"},
	{"examples", "examples"},
	{"buildinfo", "internal/buildinfo"},
	{"core", "internal/core"},
	{"dataset", "internal/dataset"},
	{"estimate", "internal/estimate"},
	{"experiments", "internal/experiments"},
	{"fmu", "internal/fmu"},
	{"ml", "internal/ml"},
	{"modelica", "internal/modelica"},
	{"mpc", "internal/mpc"},
	{"pystack", "internal/pystack"},
	{"server", "internal/server"},
	{"solver", "internal/solver"},
	{"sqldb", "internal/sqldb"},
	{"timeseries", "internal/timeseries"},
	{"usability", "internal/usability"},
	{"uuid", "internal/uuid"},
	{"variant", "internal/variant"},
}

// loc counts non-test .go lines per package: a plain line count over the
// source tree, the benchmark's own directory excluded.
func (p *probeSet) loc() error {
	counts := make(map[string]int)
	total := 0
	err := filepath.WalkDir(p.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(p.root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(data, []byte{'\n'})
		total += n
		counts[locOwner(filepath.ToSlash(filepath.Dir(rel)))] += n
		return nil
	})
	if err != nil {
		return err
	}
	for _, pkg := range locPackages {
		p.put("loc."+pkg.name, float64(counts[pkg.name]), "count")
	}
	p.put("loc.other", float64(counts["other"]), "count")
	p.put("loc.total", float64(total), "count")
	return nil
}

// locOwner names the ledger entry a directory belongs to: the listed
// directory itself or any directory below it (the root entry owns only the
// root's own files).
func locOwner(dir string) string {
	for _, pkg := range locPackages {
		if dir == pkg.dir || (pkg.dir != "." && strings.HasPrefix(dir, pkg.dir+"/")) {
			return pkg.name
		}
	}
	return "other"
}
