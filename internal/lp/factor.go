package lp

import "math"

// pivTol is the smallest pivot magnitude the factorization accepts: a
// basis whose singleton or bump pivot falls below it is treated as
// singular. It is far below the simplex's own pivot tolerance (eps, on
// the transformed column), so a basis the simplex reached by pivoting
// always factors.
const pivTol = 1e-11

// factor is an LU factorization of a basis matrix B, whose column k is
// the constraint column of basis position k. Singleton peeling orders
// B's rows and columns into a sequence of m pivots such that, permuted
// into that order, B is upper triangular except for one square block on
// the diagonal, the bump:
//
//   - column singletons first, in the order found: a column with one
//     entry in the rows not yet pivoted, pivoted on that entry;
//   - then the bump, whose rows and columns are what neither peeling
//     reaches, factored dense with partial pivoting;
//   - row singletons of what the column pass left last, in reverse
//     order of discovery (a row with one entry in the columns not yet
//     pivoted, pivoted on that entry).
//
// Outside the bump a pivot is its basis column itself: the diagonal
// entry and the column's other entries, all of which lie in rows pivoted
// earlier in the sequence. FTRAN is then a column-oriented back
// substitution from the last pivot to the first and BTRAN a forward
// substitution whose steps are dot products with the same columns, each
// O(nnz(B) + bump²). CBS-RELAX bases are nearly triangular: a basis of
// 296 rows has a bump of about 8 columns.
type factor struct {
	m int
	// Pivot p pivots constraint row prow[p] against basis position
	// pcol[p]; on bump positions [b0, b1) the two lists are the bump's
	// rows and columns, each ascending.
	prow, pcol []int32
	diag       []float64 // pivot value (unused on bump positions)
	// off[offStart[p]:offStart[p+1]] are pcol[p]'s entries off the
	// diagonal (for a bump column: off the bump's rows), as row and value.
	offStart []int32
	offIdx   []int32
	offVal   []float64
	b0, b1   int
	lu       []float64 // the bump, nb×nb row-major: L (unit, below) and U
	perm     []int32   // row i of the pivoted bump is bump row perm[i]
	g        []float64 // bump solve scratch
	nnz      int       // stored entries: diagonal, off-diagonal and bump

	// Build scratch: B row-wise, live counts and flags, the work queue.
	rowStart, rowPos     []int32
	colCount, rowCount   []int32
	rowDone, colDone     []bool
	queue, tail, bumpRow []int32
}

// build factors the basis whose position k holds column cols[basis[k]]
// and reports false when it is singular (a structurally empty column or
// row, or a pivot under pivTol). On false the factor is unusable.
func (f *factor) build(cols []spCol, basis []int) bool {
	m := len(basis)
	f.resize(m)
	// B row-wise: rowPos[rowStart[i]:rowStart[i+1]] are the positions
	// with an entry in row i.
	for i := range f.rowStart {
		f.rowStart[i] = 0
	}
	for _, bj := range basis {
		for _, i := range cols[bj].idx {
			f.rowStart[i+1]++
		}
	}
	for i := 0; i < m; i++ {
		f.rowStart[i+1] += f.rowStart[i]
	}
	f.rowPos = grow(f.rowPos, int(f.rowStart[m]))
	cursor := f.rowCount // free until the row pass
	copy(cursor, f.rowStart[:m])
	for k, bj := range basis {
		for _, i := range cols[bj].idx {
			f.rowPos[cursor[i]] = int32(k)
			cursor[i]++
		}
		f.colCount[k] = int32(len(cols[bj].idx))
		f.colDone[k] = false
	}
	for i := range f.rowDone {
		f.rowDone[i] = false
	}
	f.offIdx, f.offVal = f.offIdx[:0], f.offVal[:0]

	// Column singletons, pivoted in the order found.
	front := 0
	f.queue = f.queue[:0]
	for k := range basis {
		if f.colCount[k] == 1 {
			f.queue = append(f.queue, int32(k))
		}
	}
	for q := 0; q < len(f.queue); q++ {
		k := int(f.queue[q])
		if f.colDone[k] {
			continue
		}
		col := &cols[basis[k]]
		r, v := -1, 0.0
		for t, i := range col.idx {
			if !f.rowDone[i] {
				r, v = int(i), col.val[t]
			}
		}
		if r < 0 || math.Abs(v) < pivTol {
			return false
		}
		f.pivotOn(front, r, k, col)
		front++
		for _, k2 := range f.rowPos[f.rowStart[r]:f.rowStart[r+1]] {
			if f.colDone[k2] {
				continue
			}
			f.colCount[k2]--
			switch f.colCount[k2] {
			case 0:
				return false
			case 1:
				f.queue = append(f.queue, k2)
			}
		}
	}

	// Row singletons of the rest, collected in tail and placed last.
	f.queue, f.tail = f.queue[:0], f.tail[:0]
	for i := 0; i < m; i++ {
		if f.rowDone[i] {
			continue
		}
		n := int32(0)
		for _, k := range f.rowPos[f.rowStart[i]:f.rowStart[i+1]] {
			if !f.colDone[k] {
				n++
			}
		}
		switch f.rowCount[i] = n; n {
		case 0:
			return false
		case 1:
			f.queue = append(f.queue, int32(i))
		}
	}
	for q := 0; q < len(f.queue); q++ {
		r := int(f.queue[q])
		if f.rowDone[r] {
			continue
		}
		k := -1
		for _, k2 := range f.rowPos[f.rowStart[r]:f.rowStart[r+1]] {
			if !f.colDone[k2] {
				k = int(k2)
			}
		}
		if k < 0 {
			return false
		}
		f.rowDone[r], f.colDone[k] = true, true
		f.tail = append(f.tail, int32(r), int32(k))
		for _, i := range cols[basis[k]].idx {
			if f.rowDone[i] {
				continue
			}
			f.rowCount[i]--
			switch f.rowCount[i] {
			case 0:
				return false
			case 1:
				f.queue = append(f.queue, i)
			}
		}
	}

	// The bump: every row and column neither pass reached, ascending.
	f.b0 = front
	nb := 0
	for i := 0; i < m; i++ {
		f.bumpRow[i] = -1
		if !f.rowDone[i] {
			f.prow[front+nb] = int32(i)
			f.bumpRow[i] = int32(nb)
			nb++
		}
	}
	f.b1 = front + nb
	f.lu = grow(f.lu, nb*nb)
	for i := range f.lu {
		f.lu[i] = 0
	}
	j := 0
	for k := range basis {
		if f.colDone[k] {
			continue
		}
		p := front + j
		f.pcol[p] = int32(k)
		col := &cols[basis[k]]
		for t, i := range col.idx {
			if bi := f.bumpRow[i]; bi >= 0 {
				f.lu[int(bi)*nb+j] = col.val[t]
			} else {
				f.offIdx = append(f.offIdx, i)
				f.offVal = append(f.offVal, col.val[t])
			}
		}
		f.offStart[p+1] = int32(len(f.offIdx))
		j++
	}
	if !f.factorBump(nb) {
		return false
	}

	// Row singletons last, in reverse order of discovery.
	for t := len(f.tail)/2 - 1; t >= 0; t-- {
		r, k := int(f.tail[2*t]), int(f.tail[2*t+1])
		p := m - 1 - t
		col := &cols[basis[k]]
		v := 0.0
		for q, i := range col.idx {
			if int(i) == r {
				v = col.val[q]
			}
		}
		if math.Abs(v) < pivTol {
			return false
		}
		f.pivotOn(p, r, k, col)
	}
	f.nnz = m + len(f.offIdx) + nb*nb
	return true
}

// pivotOn records pivot p as row r of basis position k, whose column is
// col: the diagonal value and the column's other entries. Pivots are
// recorded in sequence order, so the off-diagonal lists stay contiguous.
func (f *factor) pivotOn(p, r, k int, col *spCol) {
	f.rowDone[r], f.colDone[k] = true, true
	f.prow[p], f.pcol[p] = int32(r), int32(k)
	for t, i := range col.idx {
		if int(i) == r {
			f.diag[p] = col.val[t]
			continue
		}
		f.offIdx = append(f.offIdx, i)
		f.offVal = append(f.offVal, col.val[t])
	}
	f.offStart[p+1] = int32(len(f.offIdx))
}

// factorBump replaces the nb×nb bump with its LU factors, choosing each
// column's pivot as the largest remaining entry (partial pivoting).
func (f *factor) factorBump(nb int) bool {
	a := f.lu
	for i := 0; i < nb; i++ {
		f.perm[i] = int32(i)
	}
	for j := 0; j < nb; j++ {
		piv, best := j, math.Abs(a[j*nb+j])
		for i := j + 1; i < nb; i++ {
			if v := math.Abs(a[i*nb+j]); v > best {
				piv, best = i, v
			}
		}
		if best < pivTol {
			return false
		}
		if piv != j {
			for c := 0; c < nb; c++ {
				a[j*nb+c], a[piv*nb+c] = a[piv*nb+c], a[j*nb+c]
			}
			f.perm[j], f.perm[piv] = f.perm[piv], f.perm[j]
		}
		d := a[j*nb+j]
		for i := j + 1; i < nb; i++ {
			l := a[i*nb+j]
			if l == 0 {
				continue
			}
			l /= d
			a[i*nb+j] = l
			for c := j + 1; c < nb; c++ {
				a[i*nb+c] -= l * a[j*nb+c]
			}
		}
	}
	return true
}

// resize sizes the factor for an m-row basis, reusing its storage.
func (f *factor) resize(m int) {
	if f.m == m && f.prow != nil {
		return
	}
	f.m = m
	f.prow, f.pcol = make([]int32, m), make([]int32, m)
	f.diag = make([]float64, m)
	f.offStart = make([]int32, m+1)
	f.rowStart = make([]int32, m+1)
	f.colCount, f.rowCount = make([]int32, m), make([]int32, m)
	f.rowDone, f.colDone = make([]bool, m), make([]bool, m)
	f.bumpRow, f.perm = make([]int32, m), make([]int32, m)
	f.g = make([]float64, m)
}

// grow returns s resized to n, reallocated only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ftran solves B·x = a: work holds a by constraint row and is consumed,
// x is written to out by basis position (every position).
func (f *factor) ftran(work, out []float64) {
	for p := f.m - 1; p >= f.b1; p-- {
		f.ftranPivot(p, work, out)
	}
	if nb := f.b1 - f.b0; nb > 0 {
		g := f.g[:nb]
		for i := range g {
			g[i] = work[f.prow[f.b0+int(f.perm[i])]]
		}
		a := f.lu
		for i := 1; i < nb; i++ {
			s := g[i]
			for c := 0; c < i; c++ {
				s -= a[i*nb+c] * g[c]
			}
			g[i] = s
		}
		for i := nb - 1; i >= 0; i-- {
			s := g[i]
			for c := i + 1; c < nb; c++ {
				s -= a[i*nb+c] * g[c]
			}
			g[i] = s / a[i*nb+i]
		}
		for j, x := range g {
			p := f.b0 + j
			out[f.pcol[p]] = x
			if x == 0 {
				continue
			}
			for q := f.offStart[p]; q < f.offStart[p+1]; q++ {
				work[f.offIdx[q]] -= f.offVal[q] * x
			}
		}
	}
	for p := f.b0 - 1; p >= 0; p-- {
		f.ftranPivot(p, work, out)
	}
}

func (f *factor) ftranPivot(p int, work, out []float64) {
	x := work[f.prow[p]]
	if x != 0 {
		x /= f.diag[p]
		for q := f.offStart[p]; q < f.offStart[p+1]; q++ {
			work[f.offIdx[q]] -= f.offVal[q] * x
		}
	}
	out[f.pcol[p]] = x
}

// btran solves yᵀ·B = uᵀ: u is read by basis position, y is written by
// constraint row (every row).
func (f *factor) btran(u, y []float64) {
	for p := 0; p < f.b0; p++ {
		f.btranPivot(p, u, y)
	}
	if nb := f.b1 - f.b0; nb > 0 {
		g := f.g[:nb]
		for j := range g {
			p := f.b0 + j
			s := u[f.pcol[p]]
			for q := f.offStart[p]; q < f.offStart[p+1]; q++ {
				s -= f.offVal[q] * y[f.offIdx[q]]
			}
			g[j] = s
		}
		// Kᵀ = Uᵀ·Lᵀ·P: forward through Uᵀ, back through Lᵀ, unpermute.
		a := f.lu
		for j := 0; j < nb; j++ {
			s := g[j]
			for i := 0; i < j; i++ {
				s -= a[i*nb+j] * g[i]
			}
			g[j] = s / a[j*nb+j]
		}
		for j := nb - 2; j >= 0; j-- {
			s := g[j]
			for i := j + 1; i < nb; i++ {
				s -= a[i*nb+j] * g[i]
			}
			g[j] = s
		}
		for i, v := range g {
			y[f.prow[f.b0+int(f.perm[i])]] = v
		}
	}
	for p := f.b1; p < f.m; p++ {
		f.btranPivot(p, u, y)
	}
}

func (f *factor) btranPivot(p int, u, y []float64) {
	s := u[f.pcol[p]]
	for q := f.offStart[p]; q < f.offStart[p+1]; q++ {
		s -= f.offVal[q] * y[f.offIdx[q]]
	}
	y[f.prow[p]] = s / f.diag[p]
}
