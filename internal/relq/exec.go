package relq

import (
	"fmt"
	"sync"

	"repro/internal/agg"
)

// Bind validates a parsed query against the table's schema and returns a
// bound execution plan. Errors cover: wrong table, unknown columns,
// aggregating a string column, and ordered comparisons against string
// values. A plan holds column positions and nothing of the table: it runs
// on any table of the schema it was bound for, and inserts never
// invalidate it.
func (t *Table) Bind(q *Query) (*Plan, error) {
	if q.Table != t.schema.Name {
		return nil, fmt.Errorf("relq: query targets table %q, this is %q", q.Table, t.schema.Name)
	}
	plan := &Plan{cols: t.schema.Columns, aggCol: -1}
	if !q.CountAll {
		i := t.schema.ColumnIndex(q.AggCol)
		if i < 0 {
			return nil, fmt.Errorf("relq: unknown column %q", q.AggCol)
		}
		if t.schema.Columns[i].Type != TInt {
			return nil, fmt.Errorf("relq: cannot %s string column %q", q.Agg, q.AggCol)
		}
		plan.aggCol = i
	}
	for _, p := range q.Preds {
		i := t.schema.ColumnIndex(p.Col)
		if i < 0 {
			return nil, fmt.Errorf("relq: unknown column %q", p.Col)
		}
		col := t.schema.Columns[i]
		if col.Type == TString {
			if p.Op != OpEq && p.Op != OpNe {
				return nil, fmt.Errorf("relq: ordered comparison on string column %q", p.Col)
			}
			if !p.Val.IsString {
				return nil, fmt.Errorf("relq: string column %q compared to non-string", p.Col)
			}
		} else if p.Val.IsString {
			return nil, fmt.Errorf("relq: integer column %q compared to string", p.Col)
		}
		plan.preds = append(plan.preds, boundPred{col: i, op: p.Op, val: p.Val})
	}
	return plan, nil
}

// Plan returns the query's bound plan for the table's schema. The plan is
// memoized on the query, not on the table: every endsystem of a cluster
// executes the same parsed query against tables of one shared schema, so
// the first table binds and the rest hit. A table of another schema binds
// afresh and takes the memo over. Errors are not memoized: a query that
// fails to bind re-reports the error on every call.
//
// The memo is keyed by *Query identity, so a BindNow copy, whose NOW() is
// resolved at another clock than its original's, binds its own plan. It is
// read and filled atomically, since parallel runs may share one parsed
// query; two that miss at once both bind, and either plan serves.
func (t *Table) Plan(q *Query) (*Plan, error) {
	if p := q.plan.Load(); p != nil && p.boundTo(&t.schema) && q.Table == t.schema.Name {
		t.stats.PlanCacheHits.Inc()
		return p, nil
	}
	p, err := t.Bind(q)
	if err != nil {
		return nil, err
	}
	t.stats.PlanCacheMisses.Inc()
	q.plan.Store(p)
	return p, nil
}

// Plan is a query bound to a schema. It runs on any table of that schema.
type Plan struct {
	cols   []Column // the column list of the schema bound for
	aggCol int      // -1 for COUNT(*)
	preds  []boundPred
}

// boundTo reports whether the plan was bound for schema s's column list:
// the same backing array, not merely equal contents.
func (p *Plan) boundTo(s *Schema) bool {
	return len(p.cols) == len(s.Columns) && (len(p.cols) == 0 || &p.cols[0] == &s.Columns[0])
}

// check panics unless the plan was bound for t's schema: its column
// positions mean nothing in another.
func (p *Plan) check(t *Table) {
	if !p.boundTo(&t.schema) {
		panic(fmt.Sprintf("relq: plan bound for another schema than table %s's", t.schema.Name))
	}
}

type boundPred struct {
	col int
	op  CmpOp
	val Expr
}

// execBuf holds the per-execution scratch state: a block's selection
// mask, the resolved right-hand sides, the selectivity-ordered conjunct
// permutation and the steps it resolves to. Buffers are pooled so the
// steady-state execution path allocates nothing.
type execBuf struct {
	mask  [BlockSize / laneGroup]uint32
	rhs   []int64
	sels  []float64
	order []int
	steps []step
}

var execBufPool = sync.Pool{New: func() any { return new(execBuf) }}

func getExecBuf(npreds int) *execBuf {
	b := execBufPool.Get().(*execBuf)
	if cap(b.rhs) < npreds {
		b.rhs = make([]int64, 0, npreds)
		b.sels = make([]float64, 0, npreds)
		b.order = make([]int, 0, npreds)
		b.steps = make([]step, 0, npreds)
	}
	return b
}

// resolveRHS evaluates every predicate's right-hand side once per
// execution (NOW() binds here).
func (p *Plan) resolveRHS(nowSeconds int64, buf *execBuf) []int64 {
	rhs := buf.rhs[:0]
	for _, pr := range p.preds {
		rhs = append(rhs, pr.val.Resolve(nowSeconds))
	}
	buf.rhs = rhs
	return rhs
}

// predOrder returns the conjunct evaluation order: ascending estimated
// selectivity (most selective first), estimated from the table's retained
// data-summary histograms, so the first kernel clears as many mask bits as
// possible and a block whose mask empties stops early. Ties
// (and predicates on unsummarized columns, pinned at selectivity 1) keep
// query order — the sort is stable — so execution stays deterministic.
// Conjunct order never changes which rows match, only how fast the
// non-matches are discarded.
func (p *Plan) predOrder(s *Summary, rhs []int64, buf *execBuf) []int {
	order := buf.order[:0]
	for i := range p.preds {
		order = append(order, i)
	}
	buf.order = order
	if s == nil || len(order) < 2 {
		return order
	}
	sels := buf.sels[:0]
	for i := range p.preds {
		pr := &p.preds[i]
		h := s.Column(p.cols[pr.col].Name)
		if h == nil {
			sels = append(sels, 1)
			continue
		}
		sels = append(sels, predSelectivity(h, pr.op, rhs[i]))
	}
	buf.sels = sels
	// Insertion sort: conjunct counts are tiny (the paper's queries have
	// one or two), and it is stable and allocation-free.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && sels[order[j-1]] > sels[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return order
}

// resolve binds the plan's conjuncts for one execution and returns the
// steps to run, in predOrder. Ordered and equality conjuncts on one column
// narrow one step, placed where the most selective of them stands.
func (p *Plan) resolve(t *Table, nowSeconds int64, buf *execBuf) []step {
	rhs := p.resolveRHS(nowSeconds, buf)
	steps := buf.steps[:0]
	for _, k := range p.predOrder(t.summary, rhs, buf) {
		pr := &p.preds[k]
		if i := narrowable(steps, pr); i >= 0 {
			steps[i].narrow(interval(pr.op, rhs[k]))
		} else {
			steps = append(steps, newStep(pr.col, pr.op, rhs[k]))
		}
	}
	buf.steps = steps
	return steps
}

// narrowable returns the index of the step a conjunct can narrow — an
// earlier ordered or equality step on its column — or -1.
func narrowable(steps []step, pr *boundPred) int {
	if pr.op != OpNe {
		for i := range steps {
			if steps[i].col == pr.col && !steps[i].ne {
				return i
			}
		}
	}
	return -1
}

// matchBlock evaluates the steps over the rows of block b. z is zoneNone
// when a zone map proved no row can match, zoneAll when zone maps proved
// every row matches (no kernel ran), and zonePartial when kernels ran: n
// is then the number of matching rows and, when it is not 0, mask, which
// holds the block's (rows+31)/32 words, sets their bits. Each step ANDs
// its matches into the mask the earlier ones left, starting from every
// row, so a COUNT(*) is the last step's popcount.
func matchBlock(t *Table, b, rows int, steps []step, mask []uint32) (n int, z zoneResult) {
	undecided := false
	for i := range steps {
		s := &steps[i]
		s.skip = false
		if !t.zonesOff {
			z := t.cols[s.col].zones[b]
			switch s.zone(z.min, z.max) {
			case zoneNone:
				return 0, zoneNone
			case zoneAll:
				s.skip = true
				continue
			}
		}
		undecided = true
	}
	if !undecided {
		return rows, zoneAll
	}
	fillMask(mask, rows)
	var open segment
	for i := range steps {
		s := &steps[i]
		if s.skip {
			continue
		}
		if s.empty { // reachable only with zone maps off
			return 0, zonePartial
		}
		g := t.cols[s.col].block(b, &open)
		base, span := s.rebase(g), s.span
		if dict := g.dict(); dict != nil {
			// The dictionary is sorted, so the step's values are an
			// interval of codes, which the uint8 kernels test as they
			// test offsets.
			var ok bool
			if base, span, ok = s.codes(dict); !ok {
				return 0, zonePartial
			}
		}
		switch {
		case g.u8 != nil:
			n = runStep(&lanes8, g.u8, base, span, mask)
		case g.u16 != nil:
			n = runStep(&lanes16, g.u16, base, span, mask)
		case g.u32 != nil:
			n = runStep(&lanes32, g.u32, base, span, mask)
		default:
			n = runStep(&lanes64, g.i64, base, span, mask)
		}
		if n == 0 {
			break
		}
	}
	return n, zonePartial
}

// scan runs the plan over the whole table and returns the number of
// matching rows, folding their aggCol values into f unless f is nil.
//
// Execution is batch-at-a-time: blocks whose zone maps prove no match are
// skipped whole; surviving blocks run the steps' kernels (most selective
// first) into the block's mask, and the fold reads the aggregate column
// under it.
func (p *Plan) scan(t *Table, nowSeconds int64, f *fold) int64 {
	p.check(t)
	if len(p.preds) == 0 && f == nil {
		t.stats.RowsMatched.Add(uint64(t.rows))
		return int64(t.rows)
	}
	buf := getExecBuf(len(p.preds))
	defer execBufPool.Put(buf)
	steps := p.resolve(t, nowSeconds, buf)

	var scanned, matched, prunedBlocks uint64
	var open segment
	for b, nb := 0, t.NumBlocks(); b < nb; b++ {
		rows := min(BlockSize, t.rows-b*BlockSize)
		mask := buf.mask[:(rows+laneGroup-1)/laneGroup]
		n, z := matchBlock(t, b, rows, steps, mask)
		switch z {
		case zoneNone:
			prunedBlocks++
			continue
		case zonePartial:
			scanned += uint64(rows)
		}
		matched += uint64(n)
		if f != nil && n > 0 {
			if z == zoneAll {
				fillMask(mask, rows)
			}
			c := &t.cols[p.aggCol]
			f.block(c.block(b, &open), mask, n, c.zones[b])
		}
	}
	t.stats.RowsScanned.Add(scanned)
	t.stats.RowsMatched.Add(matched)
	t.stats.BlocksPruned.Add(prunedBlocks)
	return int64(matched)
}

// Execute runs the plan over the whole of table t, which must be of the
// schema the plan was bound for, and returns the aggregate partial.
// nowSeconds binds NOW(). The Partial is bit-identical to ExecuteOracle's
// (see fold) — the property the differential suite asserts and the
// simulation's determinism gates depend on.
func (p *Plan) Execute(t *Table, nowSeconds int64) agg.Partial {
	if p.aggCol < 0 {
		return agg.Partial{Count: p.scan(t, nowSeconds, nil)}
	}
	f := newFold()
	p.scan(t, nowSeconds, &f)
	return f.partial()
}

// CountMatching returns the exact number of rows matching the plan's
// predicates (the "rows relevant to the query" that completeness is
// measured against). It shares Execute's block-pruned, vectorized path.
func (p *Plan) CountMatching(t *Table, nowSeconds int64) int64 {
	return p.scan(t, nowSeconds, nil)
}

// ------------------------------------------------------ row-at-a-time oracle

// cmpMatch is the scalar comparison the oracle applies per row; the
// vectorized kernels in kernels.go specialize the same semantics per
// operator.
func cmpMatch(op CmpOp, v, rhs int64) bool {
	switch op {
	case OpEq:
		return v == rhs
	case OpNe:
		return v != rhs
	case OpLt:
		return v < rhs
	case OpLe:
		return v <= rhs
	case OpGt:
		return v > rhs
	case OpGe:
		return v >= rhs
	default:
		return false
	}
}

// ExecuteOracle runs the plan with the original row-at-a-time loop: one
// predicate check per row per conjunct, one Observe per matching row. It
// is kept unconditionally compiled (no build tag) as the reference oracle
// for differential testing.
func (p *Plan) ExecuteOracle(t *Table, nowSeconds int64) agg.Partial {
	p.check(t)
	rhs := make([]int64, len(p.preds))
	for i, pr := range p.preds {
		rhs[i] = pr.val.Resolve(nowSeconds)
	}
	var out agg.Partial
rows:
	for r := 0; r < t.rows; r++ {
		for i, pr := range p.preds {
			if !cmpMatch(pr.op, t.value(pr.col, r), rhs[i]) {
				continue rows
			}
		}
		if p.aggCol < 0 {
			out.ObserveRow()
		} else {
			out.Observe(float64(t.value(p.aggCol, r)))
		}
	}
	return out
}

// CountMatchingOracle is the row-at-a-time reference for CountMatching:
// the rows ExecuteOracle observes.
func (p *Plan) CountMatchingOracle(t *Table, nowSeconds int64) int64 {
	return p.ExecuteOracle(t, nowSeconds).Count
}

// --------------------------------------------------------- table conveniences

// Execute binds (through the query's plan memo) and runs in one step.
func (t *Table) Execute(q *Query, nowSeconds int64) (agg.Partial, error) {
	plan, err := t.Plan(q)
	if err != nil {
		return agg.Partial{}, err
	}
	return plan.Execute(t, nowSeconds), nil
}

// CountMatching binds (through the query's plan memo) and counts rows
// matching the query's predicates.
func (t *Table) CountMatching(q *Query, nowSeconds int64) (int64, error) {
	plan, err := t.Plan(q)
	if err != nil {
		return 0, err
	}
	return plan.CountMatching(t, nowSeconds), nil
}

// ExecuteOracle binds and runs the row-at-a-time reference path.
func (t *Table) ExecuteOracle(q *Query, nowSeconds int64) (agg.Partial, error) {
	plan, err := t.Bind(q)
	if err != nil {
		return agg.Partial{}, err
	}
	return plan.ExecuteOracle(t, nowSeconds), nil
}

// predSelectivity estimates the fraction of rows matching one predicate
// from the column's histogram.
func predSelectivity(h interface {
	EstimateRange(lo, hi int64) float64
	EstimateEq(v int64) float64
	TotalRows() int64
}, op CmpOp, rhs int64) float64 {
	total := float64(h.TotalRows())
	if total == 0 {
		return 0
	}
	var match float64
	switch op {
	case OpEq:
		match = h.EstimateEq(rhs)
	case OpNe:
		match = total - h.EstimateEq(rhs)
	default:
		// An unsatisfiable comparison (v < MinInt64) matches nothing;
		// rhs-1 would wrap and estimate the full range instead.
		if lo, hi, ok := interval(op, rhs); ok {
			match = h.EstimateRange(lo, hi)
		}
	}
	return min(max(match/total, 0), 1)
}
