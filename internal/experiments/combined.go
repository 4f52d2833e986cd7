package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// Fig8 reproduces the usability study via the keystroke-level cost model
// (see usability.go for the substitution rationale).
// Expected shape: order-of-magnitude development-time gap (paper: 11.74x),
// pgFMU completion under ~20 minutes per user.
func Fig8() *Table {
	study := RunStudy(30, 1)
	t := &Table{
		ID:     "Figure 8",
		Title:  "Users' learning and development time (simulated cost model)",
		Header: []string{"user", "SQL skill", "Python skill", "Python [min]", "pgFMU [min]"},
	}
	for i, u := range study.Users {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.1f", u.SQLSkill),
			fmt.Sprintf("%.1f", u.PythonSkill),
			fmt.Sprintf("%.1f", study.PythonTimes[i]),
			fmt.Sprintf("%.1f", study.PgFMUTimes[i]),
		})
	}
	t.Rows = append(t.Rows, []string{
		"mean", "", "",
		fmt.Sprintf("%.1f", study.MeanPython),
		fmt.Sprintf("%.1f", study.MeanPgFMU),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("development-time speedup: %.2fx (paper: 11.74x)", study.Speedup),
		"simulated cost model replacing the 30-participant human study; see DESIGN.md")
	return t
}

// MADlibResult carries the two combined-experiment outcomes.
type MADlibResult struct {
	// RMSEWithoutOccupancy / RMSEWithOccupancy: classroom model simulated on
	// the validation window with occ=0 vs ARIMA-forecast occupancy.
	RMSEWithoutOccupancy float64
	RMSEWithOccupancy    float64
	// ImprovementPercent = (without-with)/without*100 (paper: up to 21.1%).
	ImprovementPercent float64
	// AccuracyBase / AccuracyWithTemp: damper-position classifier accuracy
	// without and with the FMU-simulated temperature feature (paper: +5.9%).
	AccuracyBase     float64
	AccuracyWithTemp float64
	AccuracyGain     float64
}

// MADlibCombination runs both §8.2 experiments on the classroom model:
//
//  1. occupancy is unknown → forecast it in-DBMS with ARIMA and feed the
//     forecast into the FMU simulation; compare validation RMSE against the
//     occupancy-blind simulation;
//  2. add the FMU-simulated indoor temperature to the feature vector of a
//     logistic-regression damper-position classifier and compare accuracy.
//
// Expected shape: double-digit percent RMSE improvement from ARIMA
// occupancy; a few percentage points of classifier accuracy from the FMU
// temperature feature.
func MADlibCombination(scale Scale) (*MADlibResult, error) {
	s, err := newSession(scale, true)
	if err != nil {
		return nil, err
	}
	ml.RegisterUDFs(s.DB())
	db := s.DB()

	// Classroom data split by time: at least ten days so the 24-lag AR has
	// enough history, with the validation window starting on a weekday
	// (occupied) so occupancy information can matter.
	hours := scale.Hours
	if hours < 240 {
		hours = 240
	}
	frame, err := dataset.GenerateClassroom(dataset.Config{Hours: hours, Seed: scale.Seed})
	if err != nil {
		return nil, err
	}
	if err := dataset.LoadFrame(db, "classroom", frame); err != nil {
		return nil, err
	}
	// Day 8 (hour 192) is a Tuesday in the generator's weekly schedule.
	split := 192.0
	for _, q := range []string{
		`CREATE TABLE trainset (time float, t float, solrad float, tout float, occ float, dpos float, vpos float)`,
		`INSERT INTO trainset SELECT time, t, solrad, tout, occ, dpos, vpos FROM classroom WHERE time < ` + fmt.Sprint(split),
		`CREATE TABLE valset (time float, t float, solrad float, tout float, occ float, dpos float, vpos float)`,
		`INSERT INTO valset SELECT time, t, solrad, tout, occ, dpos, vpos FROM classroom WHERE time >= ` + fmt.Sprint(split),
	} {
		if _, err := db.Exec(q); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", q, err)
		}
	}

	// Calibrate the classroom FMU on the training window (with occupancy).
	if _, err := s.Create(dataset.ClassroomSource, "room"); err != nil {
		return nil, err
	}
	pars, err := dataset.EstimatedParameters("classroom")
	if err != nil {
		return nil, err
	}
	if _, err := s.Parest([]string{"room"}, []string{"SELECT * FROM trainset"}, pars); err != nil {
		return nil, err
	}

	// Experiment 1a: simulate validation with occupancy forced to zero
	// (occupancy unknown).
	if _, err := db.Exec(`CREATE TABLE valzero (time float, t float, solrad float, tout float, occ float, dpos float, vpos float)`); err != nil {
		return nil, err
	}
	if _, err := db.Exec(`INSERT INTO valzero SELECT time, t, solrad, tout, 0.0, dpos, vpos FROM valset`); err != nil {
		return nil, err
	}
	rmseWithout, err := s.ValidateInstance("room", "SELECT * FROM valzero", pars)
	if err != nil {
		return nil, err
	}

	// Experiment 1b: forecast occupancy with in-DBMS ARIMA (trained on the
	// training window, seasonal structure captured by a 24-lag AR) and
	// simulate with the forecast.
	if _, err := db.Query(
		`SELECT arima_train('trainset', 'occ_model', 'time', 'occ', 24, 0, 0)`); err != nil {
		return nil, err
	}
	valRows, err := db.Query(`SELECT time, t, solrad, tout, dpos, vpos FROM valset ORDER BY time`)
	if err != nil {
		return nil, err
	}
	fc, err := db.Query(fmt.Sprintf(`SELECT forecast FROM arima_forecast('occ_model', %d)`, len(valRows.Rows)))
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(`CREATE TABLE valpred (time float, t float, solrad float, tout float, occ float, dpos float, vpos float)`); err != nil {
		return nil, err
	}
	for i, row := range valRows.Rows {
		occ := mustFloat(fc.Rows[i][0])
		if occ < 0 {
			occ = 0
		}
		if err := db.InsertRow("valpred",
			mustFloat(row[0]), mustFloat(row[1]), mustFloat(row[2]),
			mustFloat(row[3]), occ, mustFloat(row[4]), mustFloat(row[5])); err != nil {
			return nil, err
		}
	}
	rmseWith, err := s.ValidateInstance("room", "SELECT * FROM valpred", pars)
	if err != nil {
		return nil, err
	}

	res := &MADlibResult{
		RMSEWithoutOccupancy: rmseWithout,
		RMSEWithOccupancy:    rmseWith,
	}
	if rmseWithout > 0 {
		res.ImprovementPercent = (rmseWithout - rmseWith) / rmseWithout * 100
	}

	// Experiment 2: damper classifier with and without the FMU temperature.
	// Simulate the calibrated room over the whole window to obtain the
	// FMU-computed temperature.
	sim, err := s.Simulate(core.SimulateRequest{
		InstanceID: "room", InputSQL: "SELECT * FROM classroom", OutputStep: 1,
	})
	if err != nil {
		return nil, err
	}
	// Assemble the labelled set: label = damper open (dpos > 10).
	if _, err := db.Exec(`CREATE TABLE damper (label boolean, solrad float, tout float, simt float)`); err != nil {
		return nil, err
	}
	// Index simulated temperature by time.
	simT := make(map[float64]float64)
	for _, row := range sim.Rows {
		if row[2].AsText() == "t" {
			simT[mustFloat(row[0])] = mustFloat(row[3])
		}
	}
	all, err := db.Query(`SELECT time, solrad, tout, dpos FROM classroom ORDER BY time`)
	if err != nil {
		return nil, err
	}
	inserted := 0
	for _, row := range all.Rows {
		tm := mustFloat(row[0])
		st, ok := simT[tm]
		if !ok {
			continue
		}
		label := mustFloat(row[3]) > 10
		if err := db.InsertRow("damper", label, mustFloat(row[1]), mustFloat(row[2]), st); err != nil {
			return nil, err
		}
		inserted++
	}
	if inserted < 10 {
		return nil, fmt.Errorf("experiments: too few damper rows (%d)", inserted)
	}
	if _, err := db.Query(`SELECT logregr_train('damper', 'base_model', 'label', 'tout')`); err != nil {
		return nil, err
	}
	if _, err := db.Query(`SELECT logregr_train('damper', 'temp_model', 'label', 'tout, simt')`); err != nil {
		return nil, err
	}
	accBase, err := db.Query(`SELECT logregr_accuracy('base_model', 'damper', 'label', 'tout')`)
	if err != nil {
		return nil, err
	}
	accTemp, err := db.Query(`SELECT logregr_accuracy('temp_model', 'damper', 'label', 'tout, simt')`)
	if err != nil {
		return nil, err
	}
	res.AccuracyBase = mustFloat(accBase.Rows[0][0])
	res.AccuracyWithTemp = mustFloat(accTemp.Rows[0][0])
	res.AccuracyGain = (res.AccuracyWithTemp - res.AccuracyBase) * 100
	return res, nil
}

// MADlib renders the combined-experiment results.
func MADlib(scale Scale) (*Table, error) {
	res, err := MADlibCombination(scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "§8.2 combined",
		Title:  "Combining pgFMU and in-DBMS ML (MADlib equivalent)",
		Header: []string{"experiment", "baseline", "combined", "gain"},
		Rows: [][]string{
			{
				"classroom RMSE (occupancy unknown vs ARIMA-forecast occupancy)",
				fmt.Sprintf("%.4f degC", res.RMSEWithoutOccupancy),
				fmt.Sprintf("%.4f degC", res.RMSEWithOccupancy),
				fmt.Sprintf("%.1f%% RMSE reduction", res.ImprovementPercent),
			},
			{
				"damper classifier accuracy (base features vs +FMU temperature)",
				fmt.Sprintf("%.3f", res.AccuracyBase),
				fmt.Sprintf("%.3f", res.AccuracyWithTemp),
				fmt.Sprintf("%+.1f pp", res.AccuracyGain),
			},
		},
		Notes: []string{
			"expected shape (paper §8.2): up to 21.1% RMSE improvement from ARIMA occupancy; +5.9% classifier accuracy from the FMU feature",
		},
	}
	return t, nil
}

// Run dispatches an experiment by id ("table1" ... "fig8", "madlib").
func Run(id string, scale Scale) (*Table, error) {
	switch id {
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(), nil
	case "table3":
		return Table3()
	case "table4":
		return Table4(scale)
	case "table5":
		return Table5(), nil
	case "table6":
		return Table6(scale)
	case "table7":
		return Table7(scale)
	case "table8":
		return Table8(scale)
	case "fig5":
		return Fig5(scale)
	case "fig6":
		return Fig6(scale)
	case "fig7":
		return Fig7(scale)
	case "fig8":
		return Fig8(), nil
	case "madlib":
		return MADlib(scale)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// All lists every experiment id in paper order.
var All = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"table7", "table8", "fig5", "fig6", "fig7", "fig8", "madlib",
}
