package sqlmini

import (
	"strings"
	"testing"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/model"
)

func testSurvey(t *testing.T) *catalog.Survey {
	t.Helper()
	s, err := catalog.NewSurvey(catalog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseBoxQuery(t *testing.T) {
	st, err := Parse("SELECT objID, ra, dec FROM PhotoObj WHERE ra BETWEEN 180 AND 185 AND dec BETWEEN -2 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	if st.Count || len(st.Columns) != 3 || st.Columns[0] != "objID" {
		t.Errorf("projection wrong: %+v", st)
	}
	if st.Table != "PhotoObj" {
		t.Errorf("table = %q", st.Table)
	}
	if st.Region == nil {
		t.Fatal("box should produce a region")
	}
	if st.Region.RADeg != 182.5 || st.Region.DecDeg != 0 {
		t.Errorf("region center = (%v, %v)", st.Region.RADeg, st.Region.DecDeg)
	}
	if st.Region.RadiusDeg < 2 || st.Region.RadiusDeg > 4 {
		t.Errorf("bounding radius = %v", st.Region.RadiusDeg)
	}
}

func TestParseConeQuery(t *testing.T) {
	st, err := Parse("SELECT COUNT(*) FROM PhotoObj WHERE CONTAINS(POINT(185.0, 2.1), CIRCLE(185, 2, 0.5)) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Count {
		t.Error("expected COUNT(*)")
	}
	if st.Region == nil || st.Region.RadiusDeg != 0.5 || st.Region.RADeg != 185 {
		t.Errorf("region = %+v", st.Region)
	}
}

func TestParseStaleness(t *testing.T) {
	st, err := Parse("SELECT ra FROM PhotoObj WHERE ra BETWEEN 1 AND 2 AND dec BETWEEN 1 AND 2 WITH STALENESS '15m'")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tolerance != 15*time.Minute {
		t.Errorf("tolerance = %v", st.Tolerance)
	}
	st2, err := Parse("SELECT ra FROM PhotoObj WITH STALENESS 'any'")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Tolerance != model.AnyStaleness {
		t.Errorf("tolerance = %v, want AnyStaleness", st2.Tolerance)
	}
}

func TestParseMagnitudeCut(t *testing.T) {
	st, err := Parse("SELECT ra, dec FROM PhotoObj WHERE CONTAINS(POINT(10, 10), CIRCLE(10, 10, 1)) AND r < 20")
	if err != nil {
		t.Fatal(err)
	}
	if st.MagLimit == nil || *st.MagLimit != 20 {
		t.Errorf("mag limit = %v", st.MagLimit)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE PhotoObj SET x = 1",
		"SELECT FROM PhotoObj",
		"SELECT * FROM",
		"SELECT * FROM PhotoObj WHERE ra BETWEEN 1",
		"SELECT * FROM PhotoObj WHERE ra BETWEEN 1 AND 2", // missing dec
		"SELECT * FROM PhotoObj WHERE CONTAINS(POINT(1,1), CIRCLE(1,1,-5))",
		"SELECT * FROM PhotoObj WHERE CONTAINS(POINT(1,1), CIRCLE(1,95,1))",
		"SELECT * FROM PhotoObj WITH STALENESS '15'",
		"SELECT * FROM PhotoObj WHERE unknown = 1",
		"SELECT * FROM PhotoObj trailing garbage",
		"SELECT * FROM PhotoObj WHERE ra BETWEEN 5 AND 2 AND dec BETWEEN 1 AND 2",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestCompileMapsRegionToObjects(t *testing.T) {
	s := testSurvey(t)
	_, q, err := Compile("SELECT ra, dec FROM PhotoObj WHERE CONTAINS(POINT(180, 0), CIRCLE(180, 0, 1))", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Objects) == 0 {
		t.Fatal("no objects mapped")
	}
	for _, id := range q.Objects {
		if id < 1 || int(id) > s.NumObjects() {
			t.Errorf("invalid object %d", id)
		}
	}
	if q.Cost <= 0 {
		t.Error("no cost estimate")
	}
	if q.Tolerance != model.NoTolerance {
		t.Errorf("default tolerance = %v, want 0 (latest data)", q.Tolerance)
	}
}

func TestCompileAllSky(t *testing.T) {
	s := testSurvey(t)
	_, q, err := Compile("SELECT ra FROM PhotoObj", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Objects) != s.NumObjects() {
		t.Errorf("all-sky query must touch every object: %d", len(q.Objects))
	}
}

func TestCompileUnknownTable(t *testing.T) {
	s := testSurvey(t)
	if _, _, err := Compile("SELECT x FROM SpecObj", s); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestCostEstimateShrinksWithSelectivity(t *testing.T) {
	s := testSurvey(t)
	_, qWide, err := Compile("SELECT ra, dec, r FROM PhotoObj WHERE CONTAINS(POINT(180, 0), CIRCLE(180, 0, 5))", s)
	if err != nil {
		t.Fatal(err)
	}
	_, qNarrow, err := Compile("SELECT ra, dec, r FROM PhotoObj WHERE CONTAINS(POINT(180, 0), CIRCLE(180, 0, 0.2))", s)
	if err != nil {
		t.Fatal(err)
	}
	if qNarrow.Cost >= qWide.Cost {
		t.Errorf("narrow cone (%v) should cost less than wide (%v)", qNarrow.Cost, qWide.Cost)
	}
	_, qBright, err := Compile("SELECT ra, dec, r FROM PhotoObj WHERE CONTAINS(POINT(180, 0), CIRCLE(180, 0, 5)) AND r < 16", s)
	if err != nil {
		t.Fatal(err)
	}
	if qBright.Cost >= qWide.Cost {
		t.Errorf("bright cut (%v) should cost less than uncut (%v)", qBright.Cost, qWide.Cost)
	}
	_, qCount, err := Compile("SELECT COUNT(*) FROM PhotoObj WHERE CONTAINS(POINT(180, 0), CIRCLE(180, 0, 5))", s)
	if err != nil {
		t.Fatal(err)
	}
	if qCount.Cost >= qNarrow.Cost {
		t.Errorf("COUNT (%v) should be tiny", qCount.Cost)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select ra from photoobj where ra between 1 and 2 and dec between 3 and 4"); err != nil {
		t.Errorf("lowercase SQL should parse: %v", err)
	}
}

func TestStalenessPropagatesThroughCompile(t *testing.T) {
	s := testSurvey(t)
	_, q, err := Compile("SELECT ra FROM PhotoObj WHERE ra BETWEEN 1 AND 2 AND dec BETWEEN 1 AND 2 WITH STALENESS '1h'", s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Tolerance != time.Hour {
		t.Errorf("tolerance = %v", q.Tolerance)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Parse("SELECT 'unterminated FROM PhotoObj"); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Errorf("unterminated string should fail, got %v", err)
	}
	if _, err := Parse("SELECT # FROM PhotoObj"); err == nil {
		t.Error("bad character should fail")
	}
}
