package opt

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/plan"
)

// Feedback is the runtime cardinality store: after a traced query runs, the
// cluster records the actual output row count of every operator subtree,
// keyed by a structural signature. The estimator consults it before the
// statistics model, so the second time a (sub)plan is seen its cardinality
// is exact. Actual counts (not correction ratios) are stored deliberately:
// ratios compound when both a child and its parent get corrected.
type Feedback struct {
	mu sync.RWMutex //lint:lockorder opt.feedback leaf
	// rows maps subtree signature -> last observed actual output rows.
	rows map[string]float64
}

// NewFeedback creates an empty store.
func NewFeedback() *Feedback {
	return &Feedback{rows: map[string]float64{}}
}

// Record stores the observed cardinality for a subtree signature.
func (f *Feedback) Record(sig string, rows float64) {
	if f == nil || sig == "" {
		return
	}
	f.mu.Lock()
	f.rows[sig] = rows
	f.mu.Unlock()
}

// Lookup returns the recorded cardinality for a signature.
func (f *Feedback) Lookup(sig string) (float64, bool) {
	if f == nil {
		return 0, false
	}
	f.mu.RLock()
	r, ok := f.rows[sig]
	f.mu.RUnlock()
	return r, ok
}

// Len returns the number of recorded subtrees.
func (f *Feedback) Len() int {
	if f == nil {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.rows)
}

// Signature returns a stable structural key for a plan subtree. Two
// subtrees share a signature exactly when they compute the same logical
// result: node type, predicates, keys, and child signatures — but not
// physical choices like the join distribution strategy, which do not
// change cardinality.
func Signature(n plan.Node) string {
	var sb strings.Builder
	writeSignature(&sb, n)
	return sb.String()
}

func writeSignature(sb *strings.Builder, n plan.Node) {
	switch x := n.(type) {
	case *plan.Scan:
		fmt.Fprintf(sb, "scan(%s|%s|%s)", x.Table.Name, x.Alias, exprSig(x.Pred))
	case *plan.Filter:
		fmt.Fprintf(sb, "filter(%s|", exprSig(x.Pred))
		writeSignature(sb, x.Child)
		sb.WriteString(")")
	case *plan.Join:
		fmt.Fprintf(sb, "join(%d|", int(x.Type))
		for i := range x.EquiLeft {
			fmt.Fprintf(sb, "%s=%s,", exprSig(x.EquiLeft[i]), exprSig(x.EquiRight[i]))
		}
		fmt.Fprintf(sb, "|%s|", exprSig(x.Residual))
		writeSignature(sb, x.Left)
		sb.WriteString("|")
		writeSignature(sb, x.Right)
		sb.WriteString(")")
	case *plan.Agg:
		sb.WriteString("agg(")
		for _, g := range x.GroupBy {
			sb.WriteString(exprSig(g))
			sb.WriteString(",")
		}
		sb.WriteString("|")
		writeSignature(sb, x.Child)
		sb.WriteString(")")
	case *plan.Limit:
		fmt.Fprintf(sb, "limit(%d|", x.N)
		writeSignature(sb, x.Child)
		sb.WriteString(")")
	default:
		// Projections, sorts, renames and anything cardinality-preserving:
		// described by the node's own text plus child signatures.
		fmt.Fprintf(sb, "%T(", n)
		for _, ch := range n.Children() {
			writeSignature(sb, ch)
			sb.WriteString("|")
		}
		sb.WriteString(")")
	}
}

func exprSig(e expr.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}
