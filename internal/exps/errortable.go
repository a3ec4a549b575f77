package exps

import (
	"errors"
	"fmt"

	"diehard/internal/core"
	"diehard/internal/gcsim"
	"diehard/internal/heap"
	"diehard/internal/leaalloc"
	"diehard/internal/policies"
	"diehard/internal/replicate"
)

// Outcome classifies how a run of an error scenario ended, matching the
// vocabulary of Table 1: correct execution, undefined behaviour (crash,
// hang, or silently wrong output), or a controlled abort.
type Outcome string

const (
	OutcomeCorrect   Outcome = "correct"
	OutcomeUndefined Outcome = "undefined"
	OutcomeAbort     Outcome = "abort"
)

// ErrorClass names the six memory-error rows of Table 1.
type ErrorClass string

const (
	ErrMetadataOverwrite ErrorClass = "heap metadata overwrites"
	ErrInvalidFree       ErrorClass = "invalid frees"
	ErrDoubleFree        ErrorClass = "double frees"
	ErrDangling          ErrorClass = "dangling pointers"
	ErrOverflow          ErrorClass = "buffer overflows"
	ErrUninitRead        ErrorClass = "uninitialized reads"
)

// TableClasses lists the rows in the paper's order.
var TableClasses = []ErrorClass{
	ErrMetadataOverwrite, ErrInvalidFree, ErrDoubleFree,
	ErrDangling, ErrOverflow, ErrUninitRead,
}

// TableSystems lists the columns in the paper's order.
var TableSystems = []string{"GNU libc", "BDW GC", "CCured", "Rx", "Failure-oblivious", "DieHard"}

// scenario is one error-class program: it runs against an allocator and
// memory view, returning its observable output. The harness compares
// the output against Expected, computed from the program's intended
// semantics (what an infinite heap would produce).
type scenario struct {
	class    ErrorClass
	expected string
	run      func(alloc heap.Allocator, mem heap.Memory) (string, error)
}

var errWrongOutput = errors.New("exps: wrong output")

// writeByteLoop writes n bytes one at a time, like a C loop; checked
// runtimes then act per access rather than per bulk operation.
func writeByteLoop(mem heap.Memory, p heap.Ptr, v byte, n int) error {
	for i := 0; i < n; i++ {
		if err := mem.Store8(p+uint64(i), v); err != nil {
			return err
		}
	}
	return nil
}

// readByteLoop reads n bytes one at a time and reports how many held v.
func readByteLoop(mem heap.Memory, p heap.Ptr, v byte, n int) (int, error) {
	match := 0
	for i := 0; i < n; i++ {
		b, err := mem.Load8(p + uint64(i))
		if err != nil {
			return match, err
		}
		if b == v {
			match++
		}
	}
	return match, nil
}

// overflowScenario overflows a 40-byte object by (total-40) bytes
// through a byte loop, reads the whole range back, and checks a
// neighboring object's sentinel. On an infinite heap the write lands in
// boundless free space, so the read-back matches and the neighbor is
// intact. The fill byte 'N' (0x4E) has a zero low bit, so a smashed
// boundary tag reads as a free chunk with an absurd size — the shape of
// corruption glibc's assertions catch.
func overflowScenario(class ErrorClass, total int) scenario {
	return scenario{
		class:    class,
		expected: fmt.Sprintf("pattern=%d sentinel=5e47 alive=ok", total),
		run: func(alloc heap.Allocator, mem heap.Memory) (string, error) {
			a, err := alloc.Malloc(40)
			if err != nil {
				return "", err
			}
			b, err := alloc.Malloc(40)
			if err != nil {
				return "", err
			}
			if err := mem.Store64(b, 0x5e47); err != nil {
				return "", err
			}
			if err := writeByteLoop(mem, a, 'N', total); err != nil {
				return "", err
			}
			match, err := readByteLoop(mem, a, 'N', total)
			if err != nil {
				return "", err
			}
			sentinel, err := mem.Load64(b)
			if err != nil {
				return "", err
			}
			// Exercise the allocator over the damaged region, as the
			// program's continued execution would.
			if err := alloc.Free(a); err != nil {
				return "", err
			}
			alive := "ok"
			if p, err := alloc.Malloc(40); err != nil {
				return "", err
			} else if err := mem.Store64(p, 1); err != nil {
				return "", err
			}
			return fmt.Sprintf("pattern=%d sentinel=%x alive=%s", match, sentinel, alive), nil
		},
	}
}

// scenarios builds the six Table 1 rows.
//
// Note on the metadata row: the BDW baseline's descriptors live outside
// the simulated heap (DESIGN.md §1), so "metadata overwrite" for it is
// represented by the same overwrite corrupting the neighboring object —
// the observable undefined behaviour is identical. The row is
// distinguished from the buffer-overflow row by overwrite size: small
// enough for Rx's padding to absorb (metadata, where the paper credits
// Rx) versus larger than any padding (overflow, where it does not).
func scenarios() []scenario {
	return []scenario{
		overflowScenario(ErrMetadataOverwrite, 72),
		{
			class:    ErrInvalidFree,
			expected: "sentinel=c0ffee after=1",
			run: func(alloc heap.Allocator, mem heap.Memory) (string, error) {
				a, err := alloc.Malloc(64)
				if err != nil {
					return "", err
				}
				if err := mem.Store64(a, 0xc0ffee); err != nil {
					return "", err
				}
				if err := alloc.Free(a + 8); err != nil { // interior pointer
					return "", err
				}
				p, err := alloc.Malloc(64)
				if err != nil {
					return "", err
				}
				if err := mem.Store64(p, 1); err != nil {
					return "", err
				}
				after, err := mem.Load64(p)
				if err != nil {
					return "", err
				}
				sentinel, err := mem.Load64(a)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("sentinel=%x after=%d", sentinel, after), nil
			},
		},
		{
			class:    ErrDoubleFree,
			expected: "x=1111 y=2222",
			run: func(alloc heap.Allocator, mem heap.Memory) (string, error) {
				a, err := alloc.Malloc(48)
				if err != nil {
					return "", err
				}
				if _, err := alloc.Malloc(48); err != nil { // barrier
					return "", err
				}
				if err := alloc.Free(a); err != nil {
					return "", err
				}
				if err := alloc.Free(a); err != nil { // the double free
					return "", err
				}
				x, err := alloc.Malloc(48)
				if err != nil {
					return "", err
				}
				if err := mem.Store64(x, 0x1111); err != nil {
					return "", err
				}
				y, err := alloc.Malloc(48)
				if err != nil {
					return "", err
				}
				if err := mem.Store64(y, 0x2222); err != nil {
					return "", err
				}
				xv, err := mem.Load64(x)
				if err != nil {
					return "", err
				}
				yv, err := mem.Load64(y)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("x=%x y=%x", xv, yv), nil
			},
		},
		{
			class:    ErrDangling,
			expected: "value=feed",
			run: func(alloc heap.Allocator, mem heap.Memory) (string, error) {
				a, err := alloc.Malloc(48)
				if err != nil {
					return "", err
				}
				if err := mem.Store64(a, 0xfeed); err != nil {
					return "", err
				}
				if err := alloc.Free(a); err != nil { // premature free
					return "", err
				}
				// Fifty intervening allocations, all kept live.
				for i := 0; i < 50; i++ {
					p, err := alloc.Malloc(48)
					if err != nil {
						return "", err
					}
					if err := mem.Store64(p, 0xBBBB); err != nil {
						return "", err
					}
				}
				v, err := mem.Load64(a) // use after free
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("value=%x", v), nil
			},
		},
		overflowScenario(ErrOverflow, 240),
		{
			class:    ErrUninitRead,
			expected: "value=0",
			run: func(alloc heap.Allocator, mem heap.Memory) (string, error) {
				// Churn enough dirty allocation volume that reuse-based
				// allocators hand back stale memory, and that collected
				// heaps cycle objects out of the conservative recent
				// generations and recycle their slots.
				for i := 0; i < 30000; i++ {
					p, err := alloc.Malloc(64)
					if err != nil {
						return "", err
					}
					if err := mem.Memset(p, 0xAA, 64); err != nil {
						return "", err
					}
					if err := alloc.Free(p); err != nil {
						return "", err
					}
				}
				v, err := alloc.Malloc(64)
				if err != nil {
					return "", err
				}
				// The programmer assumed zeroed memory.
				got, err := mem.Load64(v)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("value=%x", got), nil
			},
		},
	}
}

// ErrorTable is the reproduced Table 1.
type ErrorTable struct {
	Classes []ErrorClass
	Systems []string
	Cell    map[ErrorClass]map[string]Outcome
}

// classify maps a scenario result to a Table 1 entry.
func classify(out string, err error, expected string) Outcome {
	if err != nil {
		if heap.IsAbort(err) {
			return OutcomeAbort
		}
		return OutcomeUndefined // crash, corruption, or hang
	}
	if out == expected {
		return OutcomeCorrect
	}
	return OutcomeUndefined
}

const tableHeap = 8 << 20

// diehardTrials is the number of seeds used for DieHard's probabilistic
// cells; a cell is "correct" when at least 80% of trials are.
const diehardTrials = 10

// RunErrorTable reproduces Table 1 empirically: each error-class
// scenario runs under each system and the observed behaviour is
// classified. DieHard cells are majorities over differently seeded
// trials, reflecting the paper's probabilistic asterisks; its
// uninitialized-read cell runs under the replicated runtime, where
// detection means termination ("abort" in the table).
//
// The (class, system) cells are independent and fully seeded, so they
// fan out across the campaign worker pool: the table for workers = N is
// identical to the table for workers = 1.
func RunErrorTable(workers int) (*ErrorTable, error) {
	scen := scenarios()
	type cell struct {
		s      scenario
		system string
	}
	var cells []cell
	for _, s := range scen {
		for _, system := range TableSystems {
			cells = append(cells, cell{s, system})
		}
	}
	outcomes, err := MapTrials(len(cells), workers, func(i int) (Outcome, error) {
		o, err := runScenario(cells[i].system, cells[i].s)
		if err != nil {
			return o, fmt.Errorf("%s / %s: %w", cells[i].s.class, cells[i].system, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	table := &ErrorTable{
		Classes: TableClasses,
		Systems: TableSystems,
		Cell:    make(map[ErrorClass]map[string]Outcome),
	}
	for i, c := range cells {
		if table.Cell[c.s.class] == nil {
			table.Cell[c.s.class] = make(map[string]Outcome)
		}
		table.Cell[c.s.class][c.system] = outcomes[i]
	}
	return table, nil
}

func runScenario(system string, s scenario) (Outcome, error) {
	switch system {
	case "GNU libc":
		h, err := leaalloc.New(leaalloc.Options{HeapSize: tableHeap})
		if err != nil {
			return "", err
		}
		out, runErr := s.run(h, h.Mem())
		return classify(out, runErr, s.expected), nil

	case "BDW GC":
		h, err := gcsim.New(gcsim.Options{HeapSize: tableHeap})
		if err != nil {
			return "", err
		}
		out, runErr := s.run(h, h.Mem())
		return classify(out, runErr, s.expected), nil

	case "CCured":
		f, err := policies.NewFailStop(tableHeap)
		if err != nil {
			return "", err
		}
		out, runErr := s.run(f, f.Memory())
		return classify(out, runErr, s.expected), nil

	case "Failure-oblivious":
		f, err := policies.NewFailOblivious(tableHeap)
		if err != nil {
			return "", err
		}
		out, runErr := s.run(f, f.Memory())
		return classify(out, runErr, s.expected), nil

	case "Rx":
		res := policies.RunRx(tableHeap, func(a heap.Allocator) error {
			out, err := s.run(a, a.Mem())
			if err != nil {
				return err
			}
			if out != s.expected {
				return errWrongOutput
			}
			return nil
		})
		if res.Err == nil {
			return OutcomeCorrect, nil
		}
		return OutcomeUndefined, nil

	case "DieHard":
		if s.class == ErrUninitRead {
			return runDieHardUninit(s)
		}
		correct := 0
		for seed := uint64(1); seed <= diehardTrials; seed++ {
			h, err := core.New(core.Options{Seed: seed}) // paper defaults: 384 MB, M=2
			if err != nil {
				return "", err
			}
			out, runErr := s.run(h, h.Mem())
			h.Close()
			if classify(out, runErr, s.expected) == OutcomeCorrect {
				correct++
			}
		}
		if correct >= diehardTrials*8/10 {
			return OutcomeCorrect, nil
		}
		return OutcomeUndefined, nil
	}
	return "", fmt.Errorf("exps: unknown system %q", system)
}

// runDieHardUninit runs the uninitialized-read scenario under the
// replicated runtime: the randomized fills make replicas disagree, the
// voter detects it, and execution terminates — the "abort*" cell.
func runDieHardUninit(s scenario) (Outcome, error) {
	prog := func(ctx *replicate.Context) error {
		out, err := s.run(ctx.Alloc, ctx.Mem)
		if err != nil {
			return err
		}
		_, err = ctx.Out.Write([]byte(out))
		return err
	}
	res, err := replicate.Run(prog, nil, replicate.Options{Replicas: 3, Seed: 0xD1CE})
	if err != nil {
		return "", err
	}
	if res.UninitSuspected {
		return OutcomeAbort, nil
	}
	if res.Agreed && string(res.Output) == s.expected {
		return OutcomeCorrect, nil
	}
	return OutcomeUndefined, nil
}
