package stats

import "fmt"

// Criterion states whether larger attribute values make a resource more or
// less desirable (Table 1, column 2 of the paper).
type Criterion int

const (
	// Minimize means lower raw values are better (e.g. CPU load).
	Minimize Criterion = iota
	// Maximize means higher raw values are better (e.g. available memory).
	Maximize
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Attribute describes one column of a SAW decision matrix.
type Attribute struct {
	Name      string
	Weight    float64
	Criterion Criterion
}

// NormalizeSum scales vals so they sum to 1 (the paper normalizes every
// attribute "by dividing the value by the sum of attribute values of all
// nodes"). If the sum is zero, all entries are mapped to 0. Negative
// inputs are invalid and produce an error.
func NormalizeSum(vals []float64) ([]float64, error) {
	sum := 0.0
	for i, v := range vals {
		if v < 0 {
			return nil, fmt.Errorf("stats: NormalizeSum: negative value %g at index %d", v, i)
		}
		sum += v
	}
	out := make([]float64, len(vals))
	if sum == 0 {
		return out, nil
	}
	for i, v := range vals {
		out[i] = v / sum
	}
	return out, nil
}

// SAWCosts computes the Simple Additive Weights cost of each alternative
// (row of matrix) against the given attributes (columns). Following the
// paper's pipeline: each attribute column is (1) sum-normalized across
// alternatives, (2) complemented w.r.t. its maximum when the attribute's
// criterion is Maximize so every column becomes a cost, then (3) costs are
// the weighted sums across columns. Lower cost is better.
func SAWCosts(attrs []Attribute, matrix [][]float64) ([]float64, error) {
	n := len(matrix)
	if n == 0 {
		return nil, nil
	}
	for r, row := range matrix {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("stats: SAWCosts: row %d has %d values, want %d", r, len(row), len(attrs))
		}
	}
	for _, a := range attrs {
		if a.Weight < 0 {
			return nil, fmt.Errorf("stats: SAWCosts: attribute %q has negative weight", a.Name)
		}
	}
	costs := make([]float64, n)
	// Two fused row-major passes instead of 3-4 strided column passes:
	// pass 1 collects per-column raw sums and maxima, pass 2 prices each
	// row in one sweep. The arithmetic stays bit-identical to the
	// column-at-a-time formulation: each column sum accumulates in row
	// order exactly as before, max(v/sum) equals max(v)/sum because
	// division by a positive sum is monotone in IEEE arithmetic, and each
	// row's cost adds its weighted column terms in the same column order.
	nc := len(attrs)
	col := make([]float64, 2*nc)
	sums, maxs := col[:nc], col[nc:]
	copy(sums, matrix[0])
	copy(maxs, matrix[0])
	negative := false
	for c := range sums {
		if matrix[0][c] < 0 {
			negative = true
		}
	}
	for _, row := range matrix[1:] {
		for c, v := range row {
			if v < 0 {
				negative = true
			}
			sums[c] += v
			if v > maxs[c] {
				maxs[c] = v
			}
		}
	}
	if negative {
		// Cold path: re-scan in the original column-major order so the
		// error names the same value the old formulation named.
		for c, a := range attrs {
			for r := range matrix {
				if v := matrix[r][c]; v < 0 {
					return nil, fmt.Errorf("stats: SAWCosts: attribute %q: %w", a.Name,
						fmt.Errorf("stats: NormalizeSum: negative value %g at index %d", v, r))
				}
			}
		}
	}
	// Pre-divide the maxima so Maximize columns complement against the
	// normalized maximum; a zero-sum column maps every entry to 0.
	for c := range maxs {
		if sums[c] == 0 {
			maxs[c] = 0
		} else {
			maxs[c] = maxs[c] / sums[c]
		}
	}
	for r, row := range matrix {
		cost := 0.0
		for c, a := range attrs {
			x := 0.0
			if s := sums[c]; s != 0 {
				x = row[c] / s
			}
			if a.Criterion == Maximize {
				x = maxs[c] - x
			}
			cost += a.Weight * x
		}
		costs[r] = cost
	}
	return costs, nil
}
