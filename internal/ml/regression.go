package ml

import (
	"fmt"
	"math"
)

// LinearModel is an OLS fit y ≈ intercept + Σ coef·x.
type LinearModel struct {
	Intercept float64
	Coef      []float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
}

// FitLinear fits ordinary least squares with an intercept.
func FitLinear(features [][]float64, target []float64) (*LinearModel, error) {
	if len(features) < 2 {
		return nil, fmt.Errorf("ml: need at least 2 samples, got %d", len(features))
	}
	p := len(features[0])
	design := make([][]float64, len(features))
	for i, row := range features {
		design[i] = append([]float64{1}, row...)
	}
	w, err := normalEquations(design, target)
	if err != nil {
		return nil, err
	}
	m := &LinearModel{Intercept: w[0], Coef: w[1 : p+1]}
	// R².
	mean := 0.0
	for _, v := range target {
		mean += v
	}
	mean /= float64(len(target))
	ssTot, ssRes := 0.0, 0.0
	for i, row := range features {
		pred := m.Predict(row)
		ssRes += (target[i] - pred) * (target[i] - pred)
		ssTot += (target[i] - mean) * (target[i] - mean)
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	}
	return m, nil
}

// Predict evaluates the linear model on one feature vector.
func (m *LinearModel) Predict(features []float64) float64 {
	return linear(m.Intercept, m.Coef, features)
}

// linear returns intercept + Σ coef·x; a missing feature counts as 0.
func linear(intercept float64, coef, x []float64) float64 {
	for i, c := range coef {
		if i < len(x) {
			intercept += c * x[i]
		}
	}
	return intercept
}

// LogisticModel is a binary classifier P(y=1|x) = sigmoid(intercept + Σ w·x).
type LogisticModel struct {
	Intercept float64
	Coef      []float64
	// Iterations the IRLS loop used.
	Iterations int
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// FitLogistic fits logistic regression by Newton–Raphson (IRLS), the method
// MADlib's logregr_train uses.
func FitLogistic(features [][]float64, labels []bool, maxIters int) (*LogisticModel, error) {
	if len(features) != len(labels) {
		return nil, fmt.Errorf("ml: %d samples vs %d labels", len(features), len(labels))
	}
	if len(features) < 2 {
		return nil, fmt.Errorf("ml: need at least 2 samples")
	}
	if maxIters <= 0 {
		maxIters = 25
	}
	p := len(features[0]) + 1
	design := make([][]float64, len(features))
	for i, row := range features {
		if len(row) != p-1 {
			return nil, fmt.Errorf("ml: ragged features at row %d", i)
		}
		design[i] = append([]float64{1}, row...)
	}
	y := make([]float64, len(labels))
	for i, b := range labels {
		if b {
			y[i] = 1
		}
	}

	w := make([]float64, p)
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		// Gradient and Hessian.
		grad := make([]float64, p)
		hess := make([][]float64, p)
		for i := range hess {
			hess[i] = make([]float64, p)
		}
		for r, row := range design {
			z := 0.0
			for i := 0; i < p; i++ {
				z += w[i] * row[i]
			}
			mu := sigmoid(z)
			wgt := mu * (1 - mu)
			for i := 0; i < p; i++ {
				grad[i] += (y[r] - mu) * row[i]
				for j := i; j < p; j++ {
					hess[i][j] += wgt * row[i] * row[j]
				}
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < i; j++ {
				hess[i][j] = hess[j][i]
			}
			hess[i][i] += 1e-8 // ridge against separation
		}
		step, err := solveLinearSystem(hess, grad)
		if err != nil {
			return nil, fmt.Errorf("ml: IRLS iteration %d: %w", iter, err)
		}
		maxStep := 0.0
		for i := 0; i < p; i++ {
			w[i] += step[i]
			maxStep = math.Max(maxStep, math.Abs(step[i]))
		}
		if maxStep < 1e-8 {
			break
		}
	}
	return &LogisticModel{Intercept: w[0], Coef: w[1:], Iterations: iters}, nil
}

// Prob returns P(y=1|x).
func (m *LogisticModel) Prob(features []float64) float64 {
	return sigmoid(linear(m.Intercept, m.Coef, features))
}

// Predict classifies with the 0.5 threshold.
func (m *LogisticModel) Predict(features []float64) bool {
	return m.Prob(features) >= 0.5
}

// Accuracy scores the classifier on a labelled set.
func (m *LogisticModel) Accuracy(features [][]float64, labels []bool) float64 {
	if len(features) == 0 {
		return 0
	}
	correct := 0
	for i, row := range features {
		if m.Predict(row) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(features))
}
