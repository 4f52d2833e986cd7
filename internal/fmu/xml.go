// Package fmu implements the Functional Mock-up Unit substrate — the role
// PyFMI plus the FMU files themselves play in the paper's stack. An FMU here
// is a real .fmu zip archive holding an FMI-2.0-shaped modelDescription.xml
// plus a Go-interpretable equation payload (binaries/go/model.json) in place
// of compiled C binaries (see docs/reproduction.md). The package
// covers the full FMU lifecycle the paper exercises: build from Modelica,
// write/load .fmu files, read metadata (variables, causalities, default
// experiment), instantiate, set/get values, and simulate with input series.
package fmu

import (
	"encoding/xml"
	"fmt"
	"math"
	"strconv"
)

// ModelDescription mirrors the FMI 2.0 modelDescription.xml structure for
// the elements pgFMU consumes: model identity, scalar variables with
// causality/variability and start/min/max, and the default experiment.
type ModelDescription struct {
	XMLName                 xml.Name          `xml:"fmiModelDescription"`
	FMIVersion              string            `xml:"fmiVersion,attr"`
	ModelName               string            `xml:"modelName,attr"`
	GUID                    string            `xml:"guid,attr"`
	Description             string            `xml:"description,attr,omitempty"`
	GenerationTool          string            `xml:"generationTool,attr,omitempty"`
	NumberOfEventIndicators int               `xml:"numberOfEventIndicators,attr"`
	ModelVariables          ModelVariables    `xml:"ModelVariables"`
	DefaultExperiment       DefaultExperiment `xml:"DefaultExperiment"`
}

// ModelVariables wraps the ScalarVariable list.
type ModelVariables struct {
	Variables []ScalarVariable `xml:"ScalarVariable"`
}

// ScalarVariable is one FMI scalar variable.
type ScalarVariable struct {
	Name           string   `xml:"name,attr"`
	ValueReference uint32   `xml:"valueReference,attr"`
	Causality      string   `xml:"causality,attr,omitempty"`
	Variability    string   `xml:"variability,attr,omitempty"`
	Description    string   `xml:"description,attr,omitempty"`
	Real           *RealVar `xml:"Real"`
}

// RealVar carries the Real type attributes; Start/Min/Max are strings so
// absence is distinguishable from zero.
type RealVar struct {
	Start string `xml:"start,attr,omitempty"`
	Min   string `xml:"min,attr,omitempty"`
	Max   string `xml:"max,attr,omitempty"`
}

// DefaultExperiment carries the simulation defaults pgFMU reads when the
// user omits time_from/time_to (paper §7).
type DefaultExperiment struct {
	StartTime string `xml:"startTime,attr,omitempty"`
	StopTime  string `xml:"stopTime,attr,omitempty"`
	Tolerance string `xml:"tolerance,attr,omitempty"`
	StepSize  string `xml:"stepSize,attr,omitempty"`
}

// attrFloat parses an optional float attribute; empty means NaN (absent).
func attrFloat(s string) (float64, error) {
	if s == "" {
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("fmu: invalid numeric attribute %q: %w", s, err)
	}
	return v, nil
}

// formatAttr renders an optional float attribute; NaN means absent.
func formatAttr(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MarshalXML renders the model description with the standard XML header.
func (md *ModelDescription) Encode() ([]byte, error) {
	body, err := xml.MarshalIndent(md, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fmu: encoding modelDescription.xml: %w", err)
	}
	return append([]byte(xml.Header), body...), nil
}

// DecodeModelDescription parses modelDescription.xml bytes.
func DecodeModelDescription(data []byte) (*ModelDescription, error) {
	var md ModelDescription
	if err := xml.Unmarshal(data, &md); err != nil {
		return nil, fmt.Errorf("fmu: parsing modelDescription.xml: %w", err)
	}
	if md.ModelName == "" {
		return nil, fmt.Errorf("fmu: modelDescription.xml missing modelName")
	}
	if md.GUID == "" {
		return nil, fmt.Errorf("fmu: modelDescription.xml missing guid")
	}
	seen := make(map[string]bool, len(md.ModelVariables.Variables))
	for _, v := range md.ModelVariables.Variables {
		if v.Name == "" {
			return nil, fmt.Errorf("fmu: scalar variable without a name")
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("fmu: duplicate scalar variable %q", v.Name)
		}
		seen[v.Name] = true
	}
	return &md, nil
}

// Variable looks up a scalar variable by name.
func (md *ModelDescription) Variable(name string) (*ScalarVariable, bool) {
	for i := range md.ModelVariables.Variables {
		if md.ModelVariables.Variables[i].Name == name {
			return &md.ModelVariables.Variables[i], true
		}
	}
	return nil, false
}

// VariablesByCausality returns the scalar variables with the given causality
// in declaration order — the metadata-driven discovery pgFMU uses to
// auto-configure tasks (Challenge 2).
func (md *ModelDescription) VariablesByCausality(causality string) []ScalarVariable {
	var out []ScalarVariable
	for _, v := range md.ModelVariables.Variables {
		if v.Causality == causality {
			out = append(out, v)
		}
	}
	return out
}
