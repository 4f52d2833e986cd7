package fmu

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/modelica"
)

// payloadPath is the archive member holding the interpretable model payload,
// sitting where an FMI binary would (binaries/<platform>/...).
const payloadPath = "binaries/go/model.json"

// descriptionPath is the standard FMI archive member for metadata.
const descriptionPath = "modelDescription.xml"

// payload is the JSON equation payload stored inside the .fmu archive.
// Expressions are serialized as Modelica source text and re-parsed on load.
type payload struct {
	Name       string             `json:"name"`
	Parameters []payloadParameter `json:"parameters"`
	Inputs     []payloadInput     `json:"inputs"`
	States     []payloadState     `json:"states"`
	Outputs    []payloadOutput    `json:"outputs"`
}

type payloadParameter struct {
	Name    string   `json:"name"`
	Default *float64 `json:"default,omitempty"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Desc    string   `json:"description,omitempty"`
}

type payloadInput struct {
	Name  string   `json:"name"`
	Start *float64 `json:"start,omitempty"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
	Desc  string   `json:"description,omitempty"`
}

type payloadState struct {
	Name       string   `json:"name"`
	Start      *float64 `json:"start,omitempty"`
	Derivative string   `json:"derivative"`
	Desc       string   `json:"description,omitempty"`
}

type payloadOutput struct {
	Name string `json:"name"`
	Expr string `json:"expr"`
	Desc string `json:"description,omitempty"`
}

func optFloat(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func fromOpt(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// Unit is a loaded (or freshly built) FMU: metadata plus the analysed model.
// A Unit is immutable and safe for concurrent use; mutation happens on
// Instances.
type Unit struct {
	Description *ModelDescription
	Model       *modelica.Model
	// GUID is the deterministic content identity of the FMU, a UUID in the
	// canonical lower-case 8-4-4-4-12 hex form.
	GUID string

	// kernel is Model compiled against its slot layout; index resolves a
	// variable name to its kind and slot with one lookup; columns are the
	// result-frame columns, states then the outputs that are not states.
	kernel  *modelica.Kernel
	index   map[string]varRef
	columns []string
}

// varRef locates a variable: slot is the kernel register of a parameter,
// input or state, and the position in Model.Outputs of a pure output.
type varRef struct {
	kind VarKind
	slot int
}

// newUnit compiles the model's equations and builds the name index. This is
// where an equation that names an unknown variable or function, or calls a
// builtin with the wrong number of arguments, is rejected.
func newUnit(md *ModelDescription, m *modelica.Model, guid string) (*Unit, error) {
	k, err := modelica.NewKernel(m)
	if err != nil {
		return nil, fmt.Errorf("fmu: compiling model %s: %w", m.Name, err)
	}
	u := &Unit{Description: md, Model: m, GUID: guid, kernel: k, index: make(map[string]varRef)}
	for i, p := range m.Parameters {
		u.index[p.Name] = varRef{VarParameter, k.ParamSlot + i}
	}
	for i, in := range m.Inputs {
		u.index[in.Name] = varRef{VarInput, k.InputSlot + i}
	}
	for i, s := range m.States {
		u.index[s.Name] = varRef{VarState, k.StateSlot + i}
		u.columns = append(u.columns, s.Name)
	}
	for i, o := range m.Outputs {
		// An output that is itself a state stays a state: its initial value
		// is settable and its column is the state's.
		if _, taken := u.index[o.Name]; !taken {
			u.index[o.Name] = varRef{VarOutput, i}
			u.columns = append(u.columns, o.Name)
		}
	}
	return u, nil
}

// FromModel builds a Unit (and its metadata) from an analysed Modelica model.
// The default experiment is seeded with the conventional values the paper's
// tooling emits: start 0, stop 86400 s (one day), tolerance 1e-6, step 3600 s.
func FromModel(m *modelica.Model) (*Unit, error) {
	if m == nil {
		return nil, fmt.Errorf("fmu: nil model")
	}
	pl, err := buildPayload(m)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(pl)
	if err != nil {
		return nil, fmt.Errorf("fmu: encoding payload: %w", err)
	}
	guid := contentGUID(raw)

	md := &ModelDescription{
		FMIVersion:     "2.0",
		ModelName:      m.Name,
		GUID:           guid,
		Description:    m.Description,
		GenerationTool: "pgfmu-go",
		DefaultExperiment: DefaultExperiment{
			StartTime: "0",
			StopTime:  "86400",
			Tolerance: "1e-06",
			StepSize:  "3600",
		},
	}
	ref := uint32(0)
	add := func(name, causality, variability, desc string, start, min, max float64) {
		md.ModelVariables.Variables = append(md.ModelVariables.Variables, ScalarVariable{
			Name:           name,
			ValueReference: ref,
			Causality:      causality,
			Variability:    variability,
			Description:    desc,
			Real: &RealVar{
				Start: formatAttr(start),
				Min:   formatAttr(min),
				Max:   formatAttr(max),
			},
		})
		ref++
	}
	for _, p := range m.Parameters {
		add(p.Name, "parameter", "fixed", p.Description, p.Default, p.Min, p.Max)
	}
	for _, in := range m.Inputs {
		add(in.Name, "input", "continuous", in.Description, in.Start, in.Min, in.Max)
	}
	outIsState := make(map[string]bool)
	for _, o := range m.Outputs {
		if id, ok := o.Expr.(*modelica.Ident); ok && id.Name == o.Name {
			outIsState[o.Name] = true
		}
	}
	for _, s := range m.States {
		causality := "local"
		if outIsState[s.Name] {
			causality = "output"
		}
		add(s.Name, causality, "continuous", s.Description, s.Start, math.NaN(), math.NaN())
	}
	for _, o := range m.Outputs {
		if outIsState[o.Name] {
			continue // already emitted as the state variable
		}
		add(o.Name, "output", "continuous", o.Description, math.NaN(), math.NaN(), math.NaN())
	}
	return newUnit(md, m, guid)
}

// CompileModelica parses, analyses, and packages Modelica source as a Unit —
// the compile_fmu step of the paper's Algorithm 1.
func CompileModelica(src string) (*Unit, error) {
	m, err := modelica.Compile(src)
	if err != nil {
		return nil, err
	}
	return FromModel(m)
}

func buildPayload(m *modelica.Model) (*payload, error) {
	pl := &payload{Name: m.Name}
	for _, p := range m.Parameters {
		pl.Parameters = append(pl.Parameters, payloadParameter{
			Name: p.Name, Default: optFloat(p.Default),
			Min: optFloat(p.Min), Max: optFloat(p.Max), Desc: p.Description,
		})
	}
	for _, in := range m.Inputs {
		pl.Inputs = append(pl.Inputs, payloadInput{
			Name: in.Name, Start: optFloat(in.Start),
			Min: optFloat(in.Min), Max: optFloat(in.Max), Desc: in.Description,
		})
	}
	for _, s := range m.States {
		pl.States = append(pl.States, payloadState{
			Name: s.Name, Start: optFloat(s.Start),
			Derivative: s.Derivative.String(), Desc: s.Description,
		})
	}
	for _, o := range m.Outputs {
		pl.Outputs = append(pl.Outputs, payloadOutput{Name: o.Name, Expr: o.Expr.String(), Desc: o.Description})
	}
	return pl, nil
}

func modelFromPayload(pl *payload) (*modelica.Model, error) {
	m := &modelica.Model{Name: pl.Name}
	for _, p := range pl.Parameters {
		m.Parameters = append(m.Parameters, modelica.Parameter{
			Name: p.Name, Default: fromOpt(p.Default),
			Min: fromOpt(p.Min), Max: fromOpt(p.Max), Description: p.Desc,
		})
	}
	for _, in := range pl.Inputs {
		m.Inputs = append(m.Inputs, modelica.Input{
			Name: in.Name, Start: fromOpt(in.Start),
			Min: fromOpt(in.Min), Max: fromOpt(in.Max), Description: in.Desc,
		})
	}
	for _, s := range pl.States {
		expr, err := modelica.ParseExpression(s.Derivative)
		if err != nil {
			return nil, fmt.Errorf("fmu: payload derivative for %s: %w", s.Name, err)
		}
		m.States = append(m.States, modelica.State{
			Name: s.Name, Start: fromOpt(s.Start), Derivative: expr, Description: s.Desc,
		})
	}
	for _, o := range pl.Outputs {
		expr, err := modelica.ParseExpression(o.Expr)
		if err != nil {
			return nil, fmt.Errorf("fmu: payload output for %s: %w", o.Name, err)
		}
		m.Outputs = append(m.Outputs, modelica.Output{Name: o.Name, Expr: expr, Description: o.Desc})
	}
	if len(m.States) == 0 {
		return nil, fmt.Errorf("fmu: payload declares no states")
	}
	return m, nil
}

// Write serializes the Unit as a .fmu zip archive.
func (u *Unit) Write(w io.Writer) error {
	zw := zip.NewWriter(w)
	xmlBytes, err := u.Description.Encode()
	if err != nil {
		return err
	}
	f, err := zw.Create(descriptionPath)
	if err != nil {
		return fmt.Errorf("fmu: creating %s: %w", descriptionPath, err)
	}
	if _, err := f.Write(xmlBytes); err != nil {
		return fmt.Errorf("fmu: writing %s: %w", descriptionPath, err)
	}
	pl, err := buildPayload(u.Model)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(pl, "", "  ")
	if err != nil {
		return fmt.Errorf("fmu: encoding payload: %w", err)
	}
	f, err = zw.Create(payloadPath)
	if err != nil {
		return fmt.Errorf("fmu: creating %s: %w", payloadPath, err)
	}
	if _, err := f.Write(raw); err != nil {
		return fmt.Errorf("fmu: writing %s: %w", payloadPath, err)
	}
	return zw.Close()
}

// WriteFile writes the .fmu archive to disk.
func (u *Unit) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := u.Write(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("fmu: writing %s: %w", path, err)
	}
	return nil
}

// Bytes renders the .fmu archive in memory (used by the in-DBMS FMU storage).
func (u *Unit) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := u.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Read parses a .fmu archive from bytes: the load_fmu step of Algorithm 1.
func Read(data []byte) (*Unit, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("fmu: not a zip archive: %w", err)
	}
	var xmlBytes, plBytes []byte
	for _, f := range zr.File {
		switch f.Name {
		case descriptionPath, payloadPath:
			rc, err := f.Open()
			if err != nil {
				return nil, fmt.Errorf("fmu: opening %s: %w", f.Name, err)
			}
			b, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return nil, fmt.Errorf("fmu: reading %s: %w", f.Name, err)
			}
			if f.Name == descriptionPath {
				xmlBytes = b
			} else {
				plBytes = b
			}
		}
	}
	if xmlBytes == nil {
		return nil, fmt.Errorf("fmu: archive missing %s", descriptionPath)
	}
	if plBytes == nil {
		return nil, fmt.Errorf("fmu: archive missing %s (not built by this tool?)", payloadPath)
	}
	md, err := DecodeModelDescription(xmlBytes)
	if err != nil {
		return nil, err
	}
	var pl payload
	if err := json.Unmarshal(plBytes, &pl); err != nil {
		return nil, fmt.Errorf("fmu: parsing payload: %w", err)
	}
	m, err := modelFromPayload(&pl)
	if err != nil {
		return nil, err
	}
	if err := crossValidate(md, m); err != nil {
		return nil, err
	}
	guid, err := parseGUID(md.GUID)
	if err != nil {
		return nil, fmt.Errorf("fmu: model GUID: %w", err)
	}
	return newUnit(md, m, guid)
}

// contentGUID derives an FMU's identity from its payload: an RFC 4122
// version-5-style UUID with SHA-256 in place of SHA-1, so identical payloads
// get identical identities — what lets pgFMU reuse one stored FMU across
// many instances (paper §5).
func contentGUID(payload []byte) string {
	u := sha256.Sum256(payload)
	u[6] = u[6]&0x0f | 0x50 // version 5
	u[8] = u[8]&0x3f | 0x80 // RFC 4122 variant
	return formatGUID(u[:16])
}

func formatGUID(u []byte) string {
	return fmt.Sprintf("%x-%x-%x-%x-%x", u[0:4], u[4:6], u[6:8], u[8:10], u[10:16])
}

// parseGUID checks that s is a UUID in the 8-4-4-4-12 hex form and returns
// it in canonical lower case.
func parseGUID(s string) (string, error) {
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return "", fmt.Errorf("malformed UUID %q", s)
	}
	u, err := hex.DecodeString(s[0:8] + s[9:13] + s[14:18] + s[19:23] + s[24:36])
	if err != nil {
		return "", fmt.Errorf("malformed UUID %q: %w", s, err)
	}
	return formatGUID(u), nil
}

// Load reads a .fmu archive from disk.
func Load(path string) (*Unit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fmu: reading %s: %w", path, err)
	}
	return Read(data)
}

// crossValidate checks that the XML variable inventory covers the payload's.
func crossValidate(md *ModelDescription, m *modelica.Model) error {
	names := make([]string, 0, len(m.Parameters)+len(m.Inputs)+len(m.States)+len(m.Outputs))
	for _, p := range m.Parameters {
		names = append(names, p.Name)
	}
	for _, in := range m.Inputs {
		names = append(names, in.Name)
	}
	for _, s := range m.States {
		names = append(names, s.Name)
	}
	for _, o := range m.Outputs {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	prev := ""
	for _, n := range names {
		if n == prev {
			continue // outputs that are states appear twice in the IR
		}
		prev = n
		if _, ok := md.Variable(n); !ok {
			return fmt.Errorf("fmu: payload variable %q missing from modelDescription.xml", n)
		}
	}
	return nil
}
