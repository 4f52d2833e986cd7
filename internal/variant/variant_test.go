package variant

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Null, "null"},
		{Bool, "boolean"},
		{Int, "integer"},
		{Float, "double precision"},
		{Text, "text"},
		{Time, "timestamp"},
		{Kind(99), "Kind(99)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Error("zero Value should be NULL")
	}
	if v.Kind() != Null {
		t.Errorf("zero Value kind = %v, want Null", v.Kind())
	}
	if v.String() != "NULL" {
		t.Errorf("zero Value String() = %q, want NULL", v.String())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	ts := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	if v := NewBool(true); !v.Bool() || v.Kind() != Bool {
		t.Error("NewBool round-trip failed")
	}
	if v := NewInt(42); v.Int() != 42 || v.Kind() != Int {
		t.Error("NewInt round-trip failed")
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Kind() != Float {
		t.Error("NewFloat round-trip failed")
	}
	if v := NewText("hi"); v.Text() != "hi" || v.Kind() != Text {
		t.Error("NewText round-trip failed")
	}
	if v := NewTime(ts); !v.Time().Equal(ts) || v.Kind() != Time {
		t.Error("NewTime round-trip failed")
	}
}

func TestFromAny(t *testing.T) {
	ts := time.Date(2018, 4, 4, 8, 0, 0, 0, time.UTC)
	cases := []struct {
		in   any
		want Value
	}{
		{nil, NewNull()},
		{true, NewBool(true)},
		{int(7), NewInt(7)},
		{int32(7), NewInt(7)},
		{int64(7), NewInt(7)},
		{float32(1.5), NewFloat(1.5)},
		{float64(1.5), NewFloat(1.5)},
		{"x", NewText("x")},
		{ts, NewTime(ts)},
		{NewInt(3), NewInt(3)},
	}
	for _, c := range cases {
		got, err := FromAny(c.in)
		if err != nil {
			t.Errorf("FromAny(%v): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("FromAny(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := FromAny(struct{}{}); err == nil {
		t.Error("FromAny(struct{}{}) should fail")
	}
}

func TestMustFromAnyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromAny should panic on unsupported type")
		}
	}()
	MustFromAny(make(chan int))
}

func TestAsFloat(t *testing.T) {
	cases := []struct {
		v       Value
		want    float64
		wantErr bool
	}{
		{NewInt(3), 3, false},
		{NewFloat(2.5), 2.5, false},
		{NewBool(true), 1, false},
		{NewBool(false), 0, false},
		{NewText(" 4.5 "), 4.5, false},
		{NewText("abc"), 0, true},
		{NewNull(), 0, true},
		{NewTime(time.Now()), 0, true},
	}
	for _, c := range cases {
		got, err := c.v.AsFloat()
		if (err != nil) != c.wantErr {
			t.Errorf("%v.AsFloat() err = %v, wantErr %v", c.v, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("%v.AsFloat() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestAsInt(t *testing.T) {
	cases := []struct {
		v       Value
		want    int64
		wantErr bool
	}{
		{NewInt(3), 3, false},
		{NewFloat(4), 4, false},
		{NewFloat(4.5), 0, true},
		{NewFloat(math.NaN()), 0, true},
		{NewFloat(math.Inf(1)), 0, true},
		{NewBool(true), 1, false},
		{NewText("12"), 12, false},
		{NewText("1.5"), 0, true},
		{NewNull(), 0, true},
	}
	for _, c := range cases {
		got, err := c.v.AsInt()
		if (err != nil) != c.wantErr {
			t.Errorf("%v.AsInt() err = %v, wantErr %v", c.v, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("%v.AsInt() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestAsBool(t *testing.T) {
	trueSpellings := []string{"t", "true", "YES", "on", "1", " True "}
	for _, s := range trueSpellings {
		got, err := NewText(s).AsBool()
		if err != nil || !got {
			t.Errorf("AsBool(%q) = %v, %v; want true", s, got, err)
		}
	}
	falseSpellings := []string{"f", "false", "no", "OFF", "0"}
	for _, s := range falseSpellings {
		got, err := NewText(s).AsBool()
		if err != nil || got {
			t.Errorf("AsBool(%q) = %v, %v; want false", s, got, err)
		}
	}
	if _, err := NewText("maybe").AsBool(); err == nil {
		t.Error("AsBool(maybe) should fail")
	}
	if got, _ := NewInt(2).AsBool(); !got {
		t.Error("AsBool(2) should be true")
	}
	if got, _ := NewFloat(0).AsBool(); got {
		t.Error("AsBool(0.0) should be false")
	}
	if _, err := NewNull().AsBool(); err == nil {
		t.Error("AsBool(NULL) should fail")
	}
}

func TestAsTextAndString(t *testing.T) {
	if got := NewNull().AsText(); got != "" {
		t.Errorf("NULL.AsText() = %q, want empty", got)
	}
	if got := NewText("x").AsText(); got != "x" {
		t.Errorf("text AsText = %q", got)
	}
	if got := NewFloat(1.5).AsText(); got != "1.5" {
		t.Errorf("float AsText = %q", got)
	}
	if got := NewInt(-3).String(); got != "-3" {
		t.Errorf("int String = %q", got)
	}
	ts := time.Date(2015, 2, 28, 8, 0, 0, 0, time.UTC)
	if got := NewTime(ts).String(); got != "2015-02-28 08:00:00" {
		t.Errorf("time String = %q", got)
	}
}

func TestParseTimeLayouts(t *testing.T) {
	inputs := []string{
		"2015-02-01 00:00:00",
		"2015-02-01 00:00",
		"2015-02-01T00:00:00",
		"2015-02-01",
	}
	want := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, in := range inputs {
		got, err := ParseTime(in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", in, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("ParseTime(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseTime("not a time"); err == nil {
		t.Error("ParseTime should fail on junk")
	}
}

func TestAsTime(t *testing.T) {
	want := time.Date(2018, 4, 4, 8, 30, 0, 0, time.UTC)
	got, err := NewText("2018-04-04 08:30:00").AsTime()
	if err != nil || !got.Equal(want) {
		t.Errorf("AsTime(text) = %v, %v", got, err)
	}
	if _, err := NewInt(1).AsTime(); err == nil {
		t.Error("AsTime(int) should fail")
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewText("it's"), "'it''s'"},
		{NewInt(5), "5"},
		{NewFloat(0.5), "0.5"},
		{NewFloat(math.NaN()), "'NaN'::float"},
		{NewFloat(math.Inf(1)), "'+Inf'::float"},
		{NewFloat(math.Inf(-1)), "'-Inf'::float"},
		{NewFloat(math.Copysign(0, -1)), "'-0'::float"},
		{NewBool(true), "true"},
		{NewNull(), "NULL"},
		{NewTime(time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)), "'2015-02-01 00:00:00'"},
	}
	for _, c := range cases {
		if got := c.v.SQLLiteral(); got != c.want {
			t.Errorf("%v.SQLLiteral() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, err := Compare(NewInt(3), NewFloat(3.0))
	if err != nil || c != 0 {
		t.Errorf("Compare(3, 3.0) = %d, %v; want 0", c, err)
	}
	c, err = Compare(NewInt(2), NewFloat(2.5))
	if err != nil || c != -1 {
		t.Errorf("Compare(2, 2.5) = %d, %v; want -1", c, err)
	}
	c, err = Compare(NewFloat(3.5), NewInt(3))
	if err != nil || c != 1 {
		t.Errorf("Compare(3.5, 3) = %d, %v; want 1", c, err)
	}
}

func TestCompareNulls(t *testing.T) {
	if c, _ := Compare(NewNull(), NewNull()); c != 0 {
		t.Error("NULL should equal NULL in ordering")
	}
	if c, _ := Compare(NewNull(), NewInt(0)); c != -1 {
		t.Error("NULL should sort before values")
	}
	if c, _ := Compare(NewInt(0), NewNull()); c != 1 {
		t.Error("values should sort after NULL")
	}
}

func TestCompareTextAndTime(t *testing.T) {
	if c, _ := Compare(NewText("a"), NewText("b")); c != -1 {
		t.Error("text compare failed")
	}
	t1 := NewTime(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC))
	t2 := NewTime(time.Date(2015, 1, 2, 0, 0, 0, 0, time.UTC))
	if c, _ := Compare(t1, t2); c != -1 {
		t.Error("time compare failed")
	}
	// Text vs time coercion both directions.
	if c, err := Compare(t1, NewText("2015-01-02")); err != nil || c != -1 {
		t.Errorf("time vs text compare = %d, %v", c, err)
	}
	if c, err := Compare(NewText("2015-01-02"), t1); err != nil || c != 1 {
		t.Errorf("text vs time compare = %d, %v", c, err)
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(NewBool(true), NewText("x")); err == nil {
		t.Error("bool vs text compare should fail")
	}
	if _, err := Compare(NewInt(1), NewTime(time.Now())); err == nil {
		t.Error("int vs time compare should fail")
	}
}

func TestCompareBool(t *testing.T) {
	if c, _ := Compare(NewBool(false), NewBool(true)); c != -1 {
		t.Error("false < true expected")
	}
	if c, _ := Compare(NewBool(true), NewBool(true)); c != 0 {
		t.Error("true == true expected")
	}
	if c, _ := Compare(NewBool(true), NewBool(false)); c != 1 {
		t.Error("true > false expected")
	}
}

func TestParseMostSpecific(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
	}{
		{"42", Int},
		{"4.5", Float},
		{"1e3", Float},
		{"true", Bool},
		{"False", Bool},
		{"2015-02-01 00:00:00", Time},
		{"hello", Text},
		{"", Text},
	}
	for _, c := range cases {
		if got := Parse(c.in).Kind(); got != c.want {
			t.Errorf("Parse(%q).Kind() = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseRoundTripsLiteral(t *testing.T) {
	// Property: for int and float inputs, Parse(v.String()) equals v.
	f := func(i int64) bool {
		v := NewInt(i)
		return Parse(v.String()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := NewFloat(x)
		parsed := Parse(v.String())
		pf, err := parsed.AsFloat()
		return err == nil && pf == x
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	// Property: Compare(a,b) == -Compare(b,a) for numeric values.
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := NewFloat(a), NewFloat(b)
		c1, err1 := Compare(va, vb)
		c2, err2 := Compare(vb, va)
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("3 should Equal 3.0 (SQL numeric equality)")
	}
	if NewText("a").Equal(NewText("b")) {
		t.Error("a should not equal b")
	}
	if NewBool(true).Equal(NewText("true")) {
		t.Error("incomparable kinds should not be Equal")
	}
}
