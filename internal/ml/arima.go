package ml

import (
	"fmt"
	"math"
)

// ARIMAModel is an ARIMA(p, d, q) fit: after d-fold differencing, the series
// follows z_t = c + Σ φ_i z_{t-i} + Σ θ_j ε_{t-j} + ε_t.
type ARIMAModel struct {
	P, D, Q  int
	Constant float64
	AR       []float64 // φ
	MA       []float64 // θ
	// Tail holds the last max(p, d, q)+d observations of the original
	// series, needed to forecast.
	Tail []float64
	// Residuals of the fit (for MA forecasting state).
	residTail []float64
	// Sigma2 is the residual variance.
	Sigma2 float64
}

// FitARIMA fits ARIMA(p,d,q) by conditional sum of squares: AR terms via
// OLS first, then joint CSS refinement of (c, φ, θ) by coordinate descent
// when q > 0 (the approach MADlib's arima_train takes, via CSS as well).
func FitARIMA(series []float64, p, d, q int) (*ARIMAModel, error) {
	if p < 0 || d < 0 || q < 0 {
		return nil, fmt.Errorf("ml: ARIMA orders must be non-negative")
	}
	if p == 0 && q == 0 {
		return nil, fmt.Errorf("ml: ARIMA needs p > 0 or q > 0")
	}
	need := p + q + d + 2
	if len(series) < need+2 {
		return nil, fmt.Errorf("ml: series too short (%d) for ARIMA(%d,%d,%d)", len(series), p, d, q)
	}

	z := difference(series, d)

	m := &ARIMAModel{P: p, D: d, Q: q, AR: make([]float64, p), MA: make([]float64, q)}

	// Stage 1: AR + constant via OLS on lagged values.
	if p > 0 {
		lags := make([][]float64, 0, len(z)-p)
		for t := p; t < len(z); t++ {
			row := make([]float64, p)
			for i := range row {
				row[i] = z[t-1-i]
			}
			lags = append(lags, row)
		}
		ols, err := FitLinear(lags, z[p:])
		if err != nil {
			return nil, fmt.Errorf("ml: ARIMA AR stage: %w", err)
		}
		m.Constant = ols.Intercept
		copy(m.AR, ols.Coef)
	} else {
		mean := 0.0
		for _, v := range z {
			mean += v
		}
		m.Constant = mean / float64(len(z))
	}

	// Stage 2: refine (c, φ, θ) jointly by coordinate descent on CSS.
	if q > 0 {
		params := make([]float64, 1+p+q)
		params[0] = m.Constant
		copy(params[1:], m.AR)
		css := func(pv []float64) float64 {
			_, ss := arimaResiduals(z, p, q, pv)
			return ss
		}
		best := css(params)
		step := 0.1
		for sweep := 0; sweep < 200 && step > 1e-7; sweep++ {
			improved := false
			for i := range params {
				for _, dir := range []float64{1, -1} {
					trial := append([]float64(nil), params...)
					trial[i] += dir * step
					if v := css(trial); v < best {
						best = v
						params = trial
						improved = true
					}
				}
			}
			if !improved {
				step /= 2
			}
		}
		m.Constant = params[0]
		copy(m.AR, params[1:1+p])
		copy(m.MA, params[1+p:])
	}

	resid, ss := arimaResiduals(z, p, q, flatParams(m))
	m.Sigma2 = ss / float64(max(1, len(z)-p))
	// Keep the state needed for forecasting.
	tailLen := min(max(p, 1)+d, len(series))
	m.Tail = append([]float64(nil), series[len(series)-tailLen:]...)
	rTail := min(q, len(resid))
	m.residTail = append([]float64(nil), resid[len(resid)-rTail:]...)
	return m, nil
}

func flatParams(m *ARIMAModel) []float64 {
	out := make([]float64, 1+m.P+m.Q)
	out[0] = m.Constant
	copy(out[1:], m.AR)
	copy(out[1+m.P:], m.MA)
	return out
}

// arimaResiduals computes conditional residuals and their sum of squares
// for parameter vector (c, φ..., θ...).
func arimaResiduals(z []float64, p, q int, params []float64) ([]float64, float64) {
	c := params[0]
	phi := params[1 : 1+p]
	theta := params[1+p:]
	resid := make([]float64, len(z))
	ss := 0.0
	for t := p; t < len(z); t++ {
		pred := c
		for i := 0; i < p; i++ {
			pred += phi[i] * z[t-1-i]
		}
		for j := 0; j < q; j++ {
			if t-1-j >= 0 {
				pred += theta[j] * resid[t-1-j]
			}
		}
		resid[t] = z[t] - pred
		ss += resid[t] * resid[t]
	}
	return resid, ss
}

// difference applies d-fold first differencing.
func difference(series []float64, d int) []float64 {
	z := append([]float64(nil), series...)
	for k := 0; k < d; k++ {
		next := make([]float64, len(z)-1)
		for i := 1; i < len(z); i++ {
			next[i-1] = z[i] - z[i-1]
		}
		z = next
	}
	return z
}

// Forecast predicts the next steps values of the original series.
func (m *ARIMAModel) Forecast(steps int) ([]float64, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("ml: forecast steps must be positive")
	}
	// Reconstruct differenced history from the tail.
	zf := difference(m.Tail, m.D)
	resid := append([]float64(nil), m.residTail...)
	out := make([]float64, steps)
	lastLevels := append([]float64(nil), m.Tail...)
	for s := 0; s < steps; s++ {
		pred := m.Constant
		for i := 0; i < m.P; i++ {
			idx := len(zf) - 1 - i
			if idx >= 0 {
				pred += m.AR[i] * zf[idx]
			}
		}
		for j := 0; j < m.Q; j++ {
			idx := len(resid) - 1 - j
			if idx >= 0 {
				pred += m.MA[j] * resid[idx]
			}
		}
		zf = append(zf, pred)
		resid = append(resid, 0) // future shocks have zero expectation
		// Integrate back: x_t = x_{t-1} + z_t, or for d=2
		// x_t = 2x_{t-1} - x_{t-2} + z_t. Higher orders integrate once.
		level, n := pred, len(lastLevels)
		switch {
		case m.D == 2 && n >= 2:
			level = 2*lastLevels[n-1] - lastLevels[n-2] + pred
		case m.D > 0:
			level = lastLevels[n-1] + pred
		}
		lastLevels = append(lastLevels, level)
		out[s] = level
	}
	return out, nil
}

// RMSEOnSeries computes the one-step-ahead in-sample RMSE of the model.
func (m *ARIMAModel) RMSEOnSeries(series []float64) (float64, error) {
	z := difference(series, m.D)
	_, ss := arimaResiduals(z, m.P, m.Q, flatParams(m))
	n := len(z) - m.P
	if n <= 0 {
		return 0, fmt.Errorf("ml: series too short")
	}
	return math.Sqrt(ss / float64(n)), nil
}
