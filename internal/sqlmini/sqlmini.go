// Package sqlmini implements the restricted SQL dialect Delta's clients
// use — the shapes that dominate the SkyServer workload the paper
// replays (cone searches, box range scans, selections, counts):
//
//	SELECT objID, ra, dec FROM PhotoObj
//	  WHERE ra BETWEEN 180 AND 185 AND dec BETWEEN -2 AND 2 AND r < 21
//	SELECT COUNT(*) FROM PhotoObj
//	  WHERE CONTAINS(POINT(185.0, 2.1), CIRCLE(185, 2, 0.5))
//	  WITH STALENESS '15m'
//
// The compiler resolves the query's spatial region against the survey's
// HTM partition to compute B(q) (the semantic framework of Section 4's
// discussion: "queries specify a spatial region and objects are also
// spatially partitioned"), estimates the result size ν(q) from the
// density model, and translates WITH STALENESS into the tolerance t(q).
package sqlmini

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/geom"
	"github.com/deltacache/delta/internal/model"
)

// Statement is a parsed query.
type Statement struct {
	// Columns are the selected column names; nil means COUNT(*).
	Columns []string
	// Count reports whether the projection is COUNT(*).
	Count bool
	// Table is the FROM table (only PhotoObj exists).
	Table string
	// Region is the spatial constraint (nil means all sky).
	Region *Region
	// MagLimit, if set, is an upper bound on the r-band magnitude
	// (smaller magnitude = brighter = rarer).
	MagLimit *float64
	// Tolerance is t(q) from WITH STALENESS (default 0: latest data).
	Tolerance time.Duration
}

// Region is a spherical cap constraint.
type Region struct {
	RADeg     float64
	DecDeg    float64
	RadiusDeg float64
}

// Cap converts the region to geometry.
func (r *Region) Cap() geom.Cap { return geom.CapFromRADec(r.RADeg, r.DecDeg, r.RadiusDeg) }

// Parse compiles the SQL text into a Statement.
func Parse(sql string) (*Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("sqlmini: trailing input at %q", p.peek().text)
	}
	return st, nil
}

// Compile parses the SQL and resolves it against a survey into the
// model.Query the decision framework consumes. The returned query has no
// ID or arrival time; callers assign those.
func Compile(sql string, survey *catalog.Survey) (*Statement, *model.Query, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if !strings.EqualFold(st.Table, "PhotoObj") {
		return nil, nil, fmt.Errorf("sqlmini: unknown table %q", st.Table)
	}
	var objects []model.ObjectID
	var areaFrac float64
	var center geom.Vec3
	if st.Region != nil {
		cap := st.Region.Cap()
		objects = survey.CoverCap(cap)
		if len(objects) == 0 {
			objects = []model.ObjectID{survey.ObjectAt(cap.Center)}
		}
		// Cap area / sphere area.
		rad := st.Region.RadiusDeg * math.Pi / 180
		areaFrac = (1 - math.Cos(rad)) / 2
		center = cap.Center
	} else {
		all := survey.Objects()
		objects = make([]model.ObjectID, len(all))
		for i := range all {
			objects[i] = all[i].ID
		}
		areaFrac = 1
		center = geom.Vec3{X: 1}
	}

	q := &model.Query{
		Objects:   objects,
		Cost:      estimateResultSize(st, survey, center, areaFrac),
		Tolerance: st.Tolerance,
	}
	return st, q, nil
}

// estimateResultSize models ν(q): rows ∝ local density × area, bytes per
// row from the projection width; COUNT(*) returns a constant-size
// result; magnitude cuts shrink the result exponentially (brighter
// cutoffs keep exponentially fewer stars).
func estimateResultSize(st *Statement, survey *catalog.Survey, center geom.Vec3, areaFrac float64) cost.Bytes {
	if st.Count {
		return 256 // a count is a single number plus protocol overhead
	}
	// Relative density at the region center, normalized by a nominal
	// mean of 1.0 (the density model's background is below 1; blobs
	// rise above).
	density := survey.Density(center)
	totalBytes := float64(survey.TotalSize())
	selectivity := 1.0
	if st.MagLimit != nil {
		// r spans roughly 14..22 in the catalog; each magnitude keeps
		// ~40% of the previous one's stars.
		depth := 22 - *st.MagLimit
		if depth < 0 {
			depth = 0
		}
		selectivity = math.Pow(0.4, depth)
	}
	colFrac := float64(len(st.Columns)) / 32 // PhotoObj has ~700 cols; our dialect ~32 usable
	for _, c := range st.Columns {
		if c == "*" {
			colFrac = 1 // SELECT * extracts the full row
		}
	}
	if colFrac > 1 {
		colFrac = 1
	}
	if colFrac <= 0 {
		colFrac = 1.0 / 32
	}
	size := totalBytes * areaFrac * density * selectivity * colFrac
	if size < 1024 {
		size = 1024
	}
	return cost.Bytes(size)
}

// --- lexer ---

type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokNumber
	tokString
	tokPunct
	tokEOF
)

type token struct {
	kind tokKind
	text string
}

func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (isIdentChar(rune(input[j]))) {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j]})
			i = j
		case unicode.IsDigit(c) || c == '-' || c == '+' || c == '.':
			j := i
			if input[j] == '-' || input[j] == '+' {
				j++
			}
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			if j == i || (j == i+1 && !unicode.IsDigit(rune(input[i]))) {
				return nil, fmt.Errorf("sqlmini: bad number at %q", input[i:])
			}
			toks = append(toks, token{tokNumber, input[i:j]})
			i = j
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("sqlmini: unterminated string")
			}
			toks = append(toks, token{tokString, input[i+1 : j]})
			i = j + 1
		case strings.ContainsRune("(),*=<>", c):
			toks = append(toks, token{tokPunct, string(c)})
			i++
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q", c)
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks, nil
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) eof() bool   { return p.peek().kind == tokEOF }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sqlmini: expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("sqlmini: expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlmini: expected number, got %q", t.text)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlmini: bad number %q: %w", t.text, err)
	}
	return v, nil
}

func (p *parser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Statement{}
	if p.acceptKeyword("COUNT") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Count = true
	} else {
		for {
			t := p.next()
			if t.kind == tokPunct && t.text == "*" {
				st.Columns = append(st.Columns, "*")
			} else if t.kind == tokIdent {
				st.Columns = append(st.Columns, t.text)
			} else {
				return nil, fmt.Errorf("sqlmini: expected column, got %q", t.text)
			}
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("sqlmini: expected table name, got %q", tbl.text)
	}
	st.Table = tbl.text

	if p.acceptKeyword("WHERE") {
		if err := p.parseWhere(st); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("STALENESS"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("sqlmini: STALENESS needs a quoted duration, got %q", t.text)
		}
		if strings.EqualFold(t.text, "any") {
			st.Tolerance = model.AnyStaleness
		} else {
			d, err := time.ParseDuration(t.text)
			if err != nil {
				return nil, fmt.Errorf("sqlmini: bad staleness %q: %w", t.text, err)
			}
			if d < 0 {
				return nil, fmt.Errorf("sqlmini: negative staleness")
			}
			st.Tolerance = d
		}
	}
	return st, nil
}

// parseWhere handles an AND-list of predicates. Recognized forms:
//
//	ra BETWEEN a AND b
//	dec BETWEEN a AND b
//	r < m   |   r <= m
//	CONTAINS(POINT(ra, dec), CIRCLE(ra, dec, radius))  [optionally = 1]
func (p *parser) parseWhere(st *Statement) error {
	var raLo, raHi, decLo, decHi *float64
	for {
		t := p.peek()
		switch {
		case t.kind == tokIdent && strings.EqualFold(t.text, "CONTAINS"):
			p.pos++
			region, err := p.parseContains()
			if err != nil {
				return err
			}
			st.Region = region
		case t.kind == tokIdent && strings.EqualFold(t.text, "ra"):
			p.pos++
			lo, hi, err := p.parseBetween()
			if err != nil {
				return err
			}
			raLo, raHi = &lo, &hi
		case t.kind == tokIdent && strings.EqualFold(t.text, "dec"):
			p.pos++
			lo, hi, err := p.parseBetween()
			if err != nil {
				return err
			}
			decLo, decHi = &lo, &hi
		case t.kind == tokIdent && strings.EqualFold(t.text, "r"):
			p.pos++
			if err := p.expectPunct("<"); err != nil {
				return err
			}
			// Accept <= as "<" "=".
			if p.peek().kind == tokPunct && p.peek().text == "=" {
				p.pos++
			}
			m, err := p.number()
			if err != nil {
				return err
			}
			st.MagLimit = &m
		default:
			return fmt.Errorf("sqlmini: unsupported predicate at %q", t.text)
		}
		if !p.acceptKeyword("AND") {
			break
		}
	}
	// Convert a box into its bounding cap.
	if raLo != nil || decLo != nil {
		if raLo == nil || decLo == nil {
			return fmt.Errorf("sqlmini: box queries need both ra and dec ranges")
		}
		if *raHi < *raLo || *decHi < *decLo {
			return fmt.Errorf("sqlmini: empty range")
		}
		ra := (*raLo + *raHi) / 2
		dec := (*decLo + *decHi) / 2
		// Bounding radius: half the diagonal, with RA span shrunk by
		// cos(dec).
		dRA := (*raHi - *raLo) / 2 * math.Cos(dec*math.Pi/180)
		dDec := (*decHi - *decLo) / 2
		radius := math.Sqrt(dRA*dRA + dDec*dDec)
		if radius <= 0 {
			radius = 0.01
		}
		if st.Region != nil {
			return fmt.Errorf("sqlmini: cannot combine a box with CONTAINS")
		}
		st.Region = &Region{RADeg: ra, DecDeg: dec, RadiusDeg: radius}
	}
	return nil
}

func (p *parser) parseBetween() (lo, hi float64, err error) {
	if err := p.expectKeyword("BETWEEN"); err != nil {
		return 0, 0, err
	}
	lo, err = p.number()
	if err != nil {
		return 0, 0, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return 0, 0, err
	}
	hi, err = p.number()
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func (p *parser) parseContains() (*Region, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("POINT"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if _, err := p.number(); err != nil { // point RA (informational)
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if _, err := p.number(); err != nil { // point Dec
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("CIRCLE"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	ra, err := p.number()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	dec, err := p.number()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	radius, err := p.number()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// Optional "= 1".
	if p.peek().kind == tokPunct && p.peek().text == "=" {
		p.pos++
		if _, err := p.number(); err != nil {
			return nil, err
		}
	}
	if radius <= 0 || radius > 180 {
		return nil, fmt.Errorf("sqlmini: circle radius %v out of range", radius)
	}
	if dec < -90 || dec > 90 {
		return nil, fmt.Errorf("sqlmini: circle dec %v out of range", dec)
	}
	return &Region{RADeg: ra, DecDeg: dec, RadiusDeg: radius}, nil
}
