package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
	"ghostspec/internal/pgtable"
)

// locCategory maps repository paths to the paper's size-accounting
// categories (§6 "Specification size").
type locCategory struct {
	name string
	dirs []string
}

var locCategories = []locCategory{
	{"implementation: hypervisor (internal/hyp)", []string{"internal/hyp"}},
	{"implementation: substrates (arch/pgtable/mem/locks)",
		[]string{"internal/arch", "internal/pgtable", "internal/mem", "internal/spinlock"}},
	{"specification: ghost state + abstraction + specs", []string{"internal/core/ghost"}},
	{"test infra: proxy/coverage/suite/randtest/faults",
		[]string{"internal/proxy", "internal/coverage", "internal/suite",
			"internal/randtest", "internal/faults", "internal/bugdemo"}},
	{"harness: cmd + examples + benches", []string{"cmd", "examples", "bench_test.go"}},
}

type locCount struct {
	name  string
	lines int
}

// countLoC counts non-test Go lines per category, rooted at the module
// directory (test files are counted for the suite category only via
// their packages' non-test files; _test.go is excluded everywhere to
// match the paper's raw-LoC convention for shipped code).
func countLoC(root string) ([]locCount, error) {
	out := make([]locCount, 0, len(locCategories))
	for _, cat := range locCategories {
		total := 0
		for _, dir := range cat.dirs {
			n, err := countDir(filepath.Join(root, dir))
			if err != nil {
				return nil, err
			}
			total += n
		}
		out = append(out, locCount{name: cat.name, lines: total})
	}
	return out, nil
}

func countDir(path string) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // run from outside the repo: skip quietly
		}
		return 0, err
	}
	if !info.IsDir() {
		return countFile(path)
	}
	total := 0
	err = filepath.Walk(path, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		n, err := countFile(p)
		if err != nil {
			return err
		}
		total += n
		return nil
	})
	return total, err
}

func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// indent prefixes every line with two spaces.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// corruptHostTable plants an out-of-band mapping in the host stage 2,
// the E8 non-interference violation.
func corruptHostTable(hv *hyp.Hypervisor) {
	scratchPFN := arch.PFN(0xA0000)
	alloc := scratchAllocator{next: scratchPFN}
	tbl := pgtable.Attach("backdoor", hv.Mem, arch.Stage2, &alloc, 2, hv.HostPGTRoot())
	victim := hv.HostMemStart() + arch.PhysAddr(99*arch.PageSize)
	attrs := arch.Attrs{Perms: arch.PermRW, Mem: arch.MemNormal, State: arch.StateSharedOwned}
	if err := tbl.Map(uint64(victim), arch.PageSize, victim, attrs, true); err != nil {
		panic(err)
	}
}

type scratchAllocator struct{ next arch.PFN }

func (s *scratchAllocator) AllocTablePage() (arch.PFN, bool) {
	s.next++
	return s.next, true
}
func (s *scratchAllocator) FreeTablePage(arch.PFN) {}
