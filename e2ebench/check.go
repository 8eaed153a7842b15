package main

import (
	"fmt"
	"net/http"
	"slices"

	"llm4em/internal/entity"
)

// checker collects correctness problems; the first few are kept for
// the report.
type checker struct {
	n        int
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	c.n++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// sameRecord reports whether an answered record carries exactly the
// attributes that were sent.
func sameRecord(got recordJSON, want entity.Record) bool {
	if got.ID != want.ID || len(got.Attrs) != len(want.Attrs) {
		return false
	}
	for i, a := range want.Attrs {
		if got.Attrs[i].Name != a.Name || got.Attrs[i].Value != a.Value {
			return false
		}
	}
	return true
}

// checkRecordIn verifies that an entity answer holds the record.
func (c *checker) checkRecordIn(e *entityResp, want entity.Record) {
	if !slices.Contains(e.Members, want.ID) {
		c.failf("entity %s: members %v miss the record", want.ID, e.Members)
		return
	}
	for _, r := range e.Records {
		if r.ID == want.ID {
			if !sameRecord(r, want) {
				c.failf("entity %s: stored record %+v differs from the one sent", want.ID, r)
			}
			return
		}
	}
	c.failf("entity %s: record missing from the answer", want.ID)
}

// checkPhase validates every answer of a phase against the expected
// /v1 schema. A failed request is a problem as well as a failure.
func (c *checker) checkPhase(p *phase, records map[string]entity.Record) {
	for i, r := range p.results {
		if r.err != nil {
			c.failf("%s %s: %v", p.name, p.ops[i].kind, r.err)
			continue
		}
		o := p.ops[i]
		switch o.kind {
		case opResolve:
			c.checkResolve(o.rec.ID, r.resolve)
		case opRead:
			if r.entity.EntityID == "" {
				c.failf("read %s: empty entity_id", o.id)
				continue
			}
			if want, ok := records[o.id]; ok {
				c.checkRecordIn(r.entity, want)
			}
		}
	}
}

func (c *checker) checkResolve(qid string, r *resolveResp) {
	switch {
	case r.QueryID != qid:
		c.failf("resolve %s: query_id %q", qid, r.QueryID)
	case r.EntityID == "":
		c.failf("resolve %s: empty entity_id", qid)
	case !slices.Contains(r.Members, qid):
		c.failf("resolve %s: members %v miss the query", qid, r.Members)
	case r.Cost == nil || r.Cost.Candidates == nil:
		c.failf("resolve %s: no cost report", qid)
	case *r.Cost.Candidates != len(r.Decisions):
		c.failf("resolve %s: %d decisions for %d candidates", qid, len(r.Decisions), *r.Cost.Candidates)
	default:
		for _, d := range r.Decisions {
			if d.CandidateID == "" || d.Method == "" {
				c.failf("resolve %s: decision without candidate or method: %+v", qid, d)
				return
			}
		}
	}
}

// readBack re-reads the group of every resolved query: union-find
// groups only grow, so each must still hold every member the resolve
// answered with.
func (c *checker) readBack(cl *http.Client, s *server, phases ...*phase) *phase {
	var ids []string
	var want [][]string
	for _, p := range phases {
		for i, r := range p.results {
			if p.ops[i].kind == opResolve && r.err == nil {
				ids = append(ids, p.ops[i].rec.ID)
				want = append(want, r.resolve.Members)
			}
		}
	}
	rb := closedLoop(cl, s, "readback", readOps(ids))
	for i, r := range rb.results {
		if r.err != nil {
			c.failf("readback %s: %v", ids[i], r.err)
			continue
		}
		for _, m := range want[i] {
			if !slices.Contains(r.entity.Members, m) {
				c.failf("readback %s: member %s of the resolve answer missing from %v", ids[i], m, r.entity.Members)
				break
			}
		}
	}
	return rb
}

// acknowledged re-reads every record the server acknowledged and checks
// it comes back unchanged.
func (c *checker) acknowledged(cl *http.Client, s *server, ids []string, records map[string]entity.Record) *phase {
	rb := closedLoop(cl, s, "acked-records", readOps(ids))
	for i, r := range rb.results {
		if r.err != nil {
			c.failf("acked record %s: %v", ids[i], r.err)
			continue
		}
		c.checkRecordIn(r.entity, records[ids[i]])
	}
	return rb
}

// quality tallies graded match decisions.
type quality struct{ tp, fp, fn, ungraded int }

func (q *quality) add(in *inputs, qid string, r *resolveResp) {
	for _, d := range r.Decisions {
		g, ok := in.gold(qid, d.CandidateID)
		switch {
		case !ok:
			q.ungraded++
		case g && d.Match:
			q.tp++
		case !g && d.Match:
			q.fp++
		case g && !d.Match:
			q.fn++
		}
	}
}

// f1 is the F1 score of the graded decisions.
func (q quality) f1() float64 {
	if q.tp == 0 {
		return 0
	}
	return 2 * float64(q.tp) / float64(2*q.tp+q.fp+q.fn)
}
