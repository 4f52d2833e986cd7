// Package ml implements the in-DBMS machine-learning substrate standing in
// for MADlib in the paper's §8.2 combined experiments: linear regression
// (OLS), logistic regression (Newton/IRLS), and ARIMA time-series models,
// each exposed both as a Go API and as SQL UDFs in the MADlib style:
// *_train writes the model into its output table (modeltable.go), and the
// prediction functions read it from there.
package ml

import (
	"fmt"
	"math"
)

// solveLinearSystem solves A x = b in place via Gaussian elimination with
// partial pivoting. A is n×n (row major), b has length n.
func solveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("ml: bad system dimensions")
	}
	// Augment and eliminate.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("ml: matrix is not square")
		}
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("ml: singular system (column %d)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// normalEquations computes (XᵀX) w = Xᵀy for design matrix X (rows are
// samples) and solves for w.
func normalEquations(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("ml: empty design matrix")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows vs %d targets", len(x), len(y))
	}
	p := len(x[0])
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("ml: ragged design matrix at row %d", r)
		}
		for i := 0; i < p; i++ {
			xty[i] += row[i] * y[r]
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	// Tiny ridge for numerical robustness on collinear inputs.
	for i := 0; i < p; i++ {
		xtx[i][i] += 1e-9
	}
	return solveLinearSystem(xtx, xty)
}
