// Package dataset generates the evaluation workloads of Section 7.1
// (Table 1). The paper's original inputs — the Incumbents relation donated
// by the University of Arizona, F. Wang's employee temporal data set (ETDS),
// and three UCR time-series files — are not redistributable, so this package
// synthesizes relations and series with the same *shape*: input cardinality,
// aggregation-group counts, overlap structure (which drives the ITA result
// size), run lengths, and temporal gap counts (which drive cmin). Every
// generator is deterministic in its seed. The substitutions are documented
// in DESIGN.md.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/temporal"
)

// Proj returns the five-tuple running-example relation of Fig. 1(a).
func Proj() *temporal.Relation {
	s := temporal.MustSchema(
		temporal.Attribute{Name: "Empl", Kind: temporal.KindString},
		temporal.Attribute{Name: "Proj", Kind: temporal.KindString},
		temporal.Attribute{Name: "Sal", Kind: temporal.KindFloat},
	)
	r := temporal.NewRelation(s)
	add := func(e, p string, sal float64, a, b temporal.Chronon) {
		r.MustAppend([]temporal.Datum{temporal.String(e), temporal.String(p), temporal.Float(sal)},
			temporal.Interval{Start: a, End: b})
	}
	add("John", "A", 800, 1, 4)
	add("Ann", "A", 400, 3, 6)
	add("Tom", "A", 300, 4, 7)
	add("John", "B", 500, 4, 5)
	add("John", "B", 500, 7, 8)
	return r
}

// ETDSConfig sizes the synthetic employee temporal data set.
type ETDSConfig struct {
	// Records is the approximate number of tuples to generate (the paper's
	// original holds 2 875 697).
	Records int
	// Horizon is the number of months covered. The ungrouped ITA result
	// size is bounded by ~2× the number of active months, so Horizon is the
	// lever that reproduces the paper's 6 394-row E1–E3 results at any
	// input scale.
	Horizon int
	// Seed drives all randomness.
	Seed int64
}

// DefaultETDS is a laptop-scale configuration whose E1–E3 ITA results land
// near the paper's 6 394 rows.
func DefaultETDS() ETDSConfig { return ETDSConfig{Records: 120000, Horizon: 3200, Seed: 1} }

// ETDS generates the employee relation with schema
// (EmpNo:int, Sex:string, Dept:string, Title:string, Salary:float, T).
// Employees have multi-record careers; within one (employee, department)
// group consecutive records often overlap by a few months (contract renewal
// before expiry), which makes the E4 grouped ITA result *larger* than the
// input — the regime the paper highlights.
func ETDS(cfg ETDSConfig) (*temporal.Relation, error) {
	if cfg.Records < 1 || cfg.Horizon < 12 {
		return nil, fmt.Errorf("dataset: ETDS needs ≥1 record and ≥12 months, got %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := temporal.MustSchema(
		temporal.Attribute{Name: "EmpNo", Kind: temporal.KindInt},
		temporal.Attribute{Name: "Sex", Kind: temporal.KindString},
		temporal.Attribute{Name: "Dept", Kind: temporal.KindString},
		temporal.Attribute{Name: "Title", Kind: temporal.KindString},
		temporal.Attribute{Name: "Salary", Kind: temporal.KindFloat},
	)
	r := temporal.NewRelation(schema)
	depts := []string{"d001", "d002", "d003", "d004", "d005", "d006", "d007", "d008", "d009"}
	titles := []string{"Engineer", "Senior Engineer", "Staff", "Senior Staff", "Manager", "Technique Leader"}
	sexes := []string{"M", "F"}

	const recordsPerEmp = 5 // average career length in records
	// Monthly wage inflation: without it the running maximum would be
	// pinned to one historic top earner for long stretches and the
	// max-aggregate ITA result would coalesce to a handful of rows; with it
	// the E2/I2 queries change value as often as E1/E3, as in Table 1.
	const inflation = 0.004
	emp := int64(10000)
	for r.Len() < cfg.Records {
		emp++
		sex := sexes[rng.Intn(2)]
		dept := depts[rng.Intn(len(depts))]
		title := titles[rng.Intn(3)]
		month := temporal.Chronon(rng.Intn(cfg.Horizon))
		salary := (38000 + rng.Float64()*25000) * math.Pow(1+inflation, float64(month))
		n := 1 + rng.Intn(2*recordsPerEmp-1)
		for k := 0; k < n && r.Len() < cfg.Records; k++ {
			length := temporal.Chronon(6 + rng.Intn(30))
			end := month + length - 1
			if end >= temporal.Chronon(cfg.Horizon) {
				end = temporal.Chronon(cfg.Horizon) - 1
			}
			if end < month {
				break
			}
			r.MustAppend([]temporal.Datum{
				temporal.Int(emp),
				temporal.String(sex),
				temporal.String(dept),
				temporal.String(title),
				temporal.Float(math.Round(salary)),
			}, temporal.Interval{Start: month, End: end})
			// Renewal: usually overlap the tail of the previous record by a
			// few months (grows the grouped ITA result), sometimes change
			// department or pause.
			salary *= 1 + rng.Float64()*0.08
			if rng.Float64() < 0.15 {
				title = titles[rng.Intn(len(titles))]
			}
			switch {
			case rng.Float64() < 0.10:
				dept = depts[rng.Intn(len(depts))]
				month = end + temporal.Chronon(1+rng.Intn(6))
			case rng.Float64() < 0.5:
				overlap := temporal.Chronon(1 + rng.Intn(4))
				month = end - overlap + 1
				if month < 0 {
					month = 0
				}
			default:
				month = end + 1
			}
			if month >= temporal.Chronon(cfg.Horizon) {
				break
			}
		}
	}
	return r, nil
}

// IncumbentsConfig sizes the synthetic incumbents relation.
type IncumbentsConfig struct {
	// Records approximates the input size (the paper's original: 83 857).
	Records int
	// Depts × Projs determines the number of aggregation groups; with the
	// occasional project suspension this sets cmin (the paper's I-queries:
	// 131 runs over 16 144 ITA rows).
	Depts, Projs int
	// Horizon is the number of months covered.
	Horizon int
	// Seed drives all randomness.
	Seed int64
}

// Incumbents generates the relation (Dept:string, Proj:string,
// Salary:float, T): employees assigned to department/project pairs with
// piecewise-constant salaries; projects are occasionally suspended for a few
// months, producing the temporal gaps the DP optimizations exploit.
func Incumbents(cfg IncumbentsConfig) (*temporal.Relation, error) {
	if cfg.Records < 1 || cfg.Depts < 1 || cfg.Projs < 1 || cfg.Horizon < 12 {
		return nil, fmt.Errorf("dataset: invalid incumbents config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := temporal.MustSchema(
		temporal.Attribute{Name: "Dept", Kind: temporal.KindString},
		temporal.Attribute{Name: "Proj", Kind: temporal.KindString},
		temporal.Attribute{Name: "Salary", Kind: temporal.KindFloat},
	)
	r := temporal.NewRelation(schema)
	type window struct{ start, end temporal.Chronon }
	// Every (dept, proj) pair is active during 1–3 windows separated by
	// suspensions: each extra window adds one temporal gap to the grouped
	// ITA result.
	horizon := temporal.Chronon(cfg.Horizon)
	groups := make([][]window, 0, cfg.Depts*cfg.Projs)
	for d := 0; d < cfg.Depts; d++ {
		for p := 0; p < cfg.Projs; p++ {
			nw := 1 + rng.Intn(3)
			var ws []window
			at := temporal.Chronon(rng.Intn(cfg.Horizon / 8))
			for w := 0; w < nw && at < horizon-6; w++ {
				length := temporal.Chronon(cfg.Horizon/4 + rng.Intn(cfg.Horizon/3))
				end := min(at+length, horizon-1)
				ws = append(ws, window{start: at, end: end})
				at = end + temporal.Chronon(3+rng.Intn(12)) // suspension gap
			}
			groups = append(groups, ws)
		}
	}
	for r.Len() < cfg.Records {
		g := rng.Intn(len(groups))
		d, p := g/cfg.Projs, g%cfg.Projs
		ws := groups[g]
		if len(ws) == 0 {
			continue
		}
		w := ws[rng.Intn(len(ws))]
		if w.end <= w.start {
			continue
		}
		start := w.start + temporal.Chronon(rng.Intn(int(w.end-w.start)))
		length := temporal.Chronon(3 + rng.Intn(36))
		end := min(start+length, w.end)
		// Wage inflation keeps the per-group maximum moving (see ETDS).
		salary := math.Round((30000 + rng.Float64()*50000) * math.Pow(1.004, float64(start)))
		r.MustAppend([]temporal.Datum{
			temporal.String(fmt.Sprintf("dept%02d", d)),
			temporal.String(fmt.Sprintf("proj%02d", p)),
			temporal.Float(salary),
		}, temporal.Interval{Start: start, End: end})
	}
	return r, nil
}
