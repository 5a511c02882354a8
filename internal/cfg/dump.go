package cfg

import (
	"fmt"
	"io"
	"strings"
)

// Dump writes a human-readable rendering of the program's structure —
// procedures, nesting, branch sites with their behaviours and PCs —
// for inspecting what the random generator actually built. Behaviour
// descriptions come from describeBehavior.
func (p *Program) Dump(w io.Writer) error {
	for i, proc := range p.Procs {
		entry := ""
		if i == p.Entry {
			entry = "  (entry)"
		}
		if _, err := fmt.Fprintf(w, "proc %d %q%s  [return @%#x]\n", i, proc.Name, entry, proc.ReturnPC); err != nil {
			return err
		}
		if err := dumpSeq(w, proc.Body, 1); err != nil {
			return err
		}
	}
	return nil
}

func dumpSeq(w io.Writer, seq []Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	for _, n := range seq {
		var err error
		switch n := n.(type) {
		case Block:
			_, err = fmt.Fprintf(w, "%sblock size=%d\n", indent, n.Size)
		case *If:
			_, err = fmt.Fprintf(w, "%sif @%#x %s\n", indent, n.Site.PC, describeBehavior(n.Site.Behavior))
			if err == nil && len(n.Then) > 0 {
				if _, err = fmt.Fprintf(w, "%sthen:\n", indent); err == nil {
					err = dumpSeq(w, n.Then, depth+1)
				}
			}
			if err == nil && len(n.Else) > 0 {
				if _, err = fmt.Fprintf(w, "%selse:\n", indent); err == nil {
					err = dumpSeq(w, n.Else, depth+1)
				}
			}
		case *Loop:
			_, err = fmt.Fprintf(w, "%sloop @%#x %s trips{min=%d mean+=%.1f}\n",
				indent, n.Site.PC, describeBehavior(n.Site.Behavior), n.Trips.Min, n.Trips.MeanExtra)
			if err == nil {
				err = dumpSeq(w, n.Body, depth+1)
			}
		case *Call:
			_, err = fmt.Fprintf(w, "%scall @%#x -> proc %d\n", indent, n.PC, n.Callee)
		case *Jump:
			_, err = fmt.Fprintf(w, "%sjump @%#x\n", indent, n.PC)
		default:
			_, err = fmt.Fprintf(w, "%s<unknown node %T>\n", indent, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// describeBehavior renders a Behavior compactly, e.g. "biased(0.97)"
// or "correlated(mask=101,inv)". A built-in behaviour held by pointer
// renders as its value.
func describeBehavior(b Behavior) string {
	switch v := b.(type) {
	case *Biased:
		return describeBehavior(*v)
	case *Correlated:
		return describeBehavior(*v)
	case *Alternating:
		return describeBehavior(*v)
	case Biased:
		return fmt.Sprintf("biased(%.2f)", v.P)
	case Correlated:
		inv := ""
		if v.Invert {
			inv = ",inv"
		}
		return fmt.Sprintf("correlated(mask=%b%s,noise=%.3f)", v.Mask, inv, v.Noise)
	case Alternating:
		return fmt.Sprintf("alternating(period=%d)", v.Period)
	default:
		return fmt.Sprintf("%T", b)
	}
}
