// Package canon writes and reads canonical JSON without reflection: the
// bytes encoding/json writes for a value, and only those. Callers spell
// their keys and hand what it refuses to encoding/json.
package canon

import (
	"math"
	"strconv"
	"time"
)

// Encoder appends canonical JSON to B; OK turns false on anything it does
// not reproduce byte for byte. Each writer takes the literal before its
// value: the key, with the brace or comma before it.
type Encoder struct {
	B  []byte
	OK bool
}

// Raw writes s as it is: a key, a brace, a literal.
func (e *Encoder) Raw(s string) { e.B = append(e.B, s...) }

// Int writes key and v.
func (e *Encoder) Int(key string, v int64) { e.B = strconv.AppendInt(append(e.B, key...), v, 10) }

// Uint writes key and v.
func (e *Encoder) Uint(key string, v uint64) { e.B = strconv.AppendUint(append(e.B, key...), v, 10) }

// Bool writes key and true or false.
func (e *Encoder) Bool(key string, v bool) { e.B = strconv.AppendBool(append(e.B, key...), v) }

// Float follows encoding/json: %f between 1e-6 and 1e21, %e outside it
// with the exponent's leading zero dropped (e-07 becomes e-7). A whole
// number of nanoseconds is written from its integer (see nanos), and so
// is an integral |f| < 2^53 other than -0: every integer up to 2^53 is a
// double, so no shorter decimal rounds to f and %f prints its digits.
func (e *Encoder) Float(key string, f float64) {
	if n, ok := nanos(f); ok {
		e.B = appendNanos(append(e.B, key...), n)
		return
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		e.B = strconv.AppendInt(append(e.B, key...), int64(f), 10)
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.OK = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.B = strconv.AppendFloat(append(e.B, key...), f, format, -1, 64)
	if n := len(e.B); format == 'e' && e.B[n-4] == 'e' && e.B[n-3] == '-' && e.B[n-2] == '0' {
		e.B[n-2] = e.B[n-1]
		e.B = e.B[:n-1]
	}
}

// Milli writes key and k thousandths as Float writes float64(k)/1000:
// the integer part, then the three-digit fraction with its trailing zeros
// trimmed. Below 1e15 the decimal k/1000 has at most 15 significant
// digits, so no other decimal as short rounds to the same double (DBL_DIG,
// as in nanos): it is the quotient's shortest form. From 1e15 on, Float
// writes it.
func (e *Encoder) Milli(key string, k int64) {
	if k <= -1e15 || k >= 1e15 {
		e.Float(key, float64(k)/1000)
		return
	}
	b := append(e.B, key...)
	if k < 0 {
		b, k = append(b, '-'), -k
	}
	b = strconv.AppendInt(b, k/1000, 10)
	if f := k % 1000; f != 0 {
		b = append(b, '.', byte('0'+f/100), pairs[2*(f%100)], pairs[2*(f%100)+1])
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	e.B = b
}

// nanos reports f as n nanoseconds, 1e3 <= |n| < 2^53, when the decimal
// n/1e9 is f's shortest form: the digits strconv's %f would find, since
// |f| >= 1e-6. n is the rounded product f·1e9 rounded to an integer or,
// where that misses, the integer nearest the exact product, the rounded
// one plus its error, which math.FMA gives exactly; n/1e9 is one
// correctly rounded division of exact operands. Below 1e15 the decimal
// has at most 15 significant digits and two such decimals never round to
// the same double (DBL_DIG), so it is f's only shortest form. From 1e15 on
// it has 16 unless n ends in 0, and a double spans less than 2 ns there
// (2^-29 s below 2^53 ns). So any shorter decimal that rounds to f is one
// of n's 15-digit neighbours ⌊n/10⌋·10 and ⌊n/10⌋·10+10, and any other
// 16-digit one, which strconv might prefer as closer, is n-1 or n+1: each
// of the four must round elsewhere.
func nanos(f float64) (int64, bool) {
	p := f * 1e9
	n := math.Round(p)
	if n/1e9 != f {
		// The product may have rounded across a half.
		if d := p - n + math.FMA(f, 1e9, -p); d > 0.5 {
			n++
		} else if d < -0.5 {
			n--
		} else {
			return 0, false
		}
		if n/1e9 != f {
			return 0, false
		}
	}
	a := math.Abs(n)
	if !(1e3 <= a && a < 1<<53) {
		return 0, false
	}
	// Rounding is symmetric, so the neighbours are checked on |n| and |f|.
	if u, g := int64(a), math.Abs(f); u >= 1e15 && u%10 != 0 {
		t := u / 10 * 10
		if roundsTo(t, g) || roundsTo(t+10, g) || roundsTo(u-1, g) || roundsTo(u+1, g) {
			return 0, false
		}
	}
	return int64(n), true
}

// roundsTo reports whether the decimal m/1e9 rounds to f.
func roundsTo(m int64, f float64) bool { return float64(m)/1e9 == f }

// pairs holds "00" to "99", so the digit writers divide once per two digits.
var pairs = func() (p [200]byte) {
	for i := range 100 {
		p[2*i], p[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return p
}()

// appendNanos writes n nanoseconds, |n| < 2^53, as seconds: the integer
// part, then the nine-digit fraction with its trailing zeros trimmed.
func appendNanos(b []byte, n int64) []byte {
	if n < 0 {
		b, n = append(b, '-'), -n
	}
	sec, frac := uint64(n)/1e9, uint64(n)%1e9
	var buf [17]byte // at most seven integer digits, the point, nine digits
	end := 7
	if frac != 0 {
		buf[7] = '.'
		for i := 15; i > 8; i -= 2 {
			q := frac / 100
			r := 2 * (frac - 100*q)
			buf[i], buf[i+1], frac = pairs[r], pairs[r+1], q
		}
		buf[8] = byte('0' + frac)
		for end = 17; buf[end-1] == '0'; end-- {
		}
	}
	i := 7
	for ; sec >= 100; sec /= 100 {
		r := 2 * (sec % 100)
		i -= 2
		buf[i], buf[i+1] = pairs[r], pairs[r+1]
	}
	if sec >= 10 {
		i -= 2
		buf[i], buf[i+1] = pairs[2*sec], pairs[2*sec+1]
	} else {
		i--
		buf[i] = byte('0' + sec)
	}
	return append(b, buf[i:end]...)
}

// Str writes s quoted when it needs no escaping under encoding/json's
// rules (printable ASCII other than the quote, the backslash and the HTML
// characters <, > and &).
func (e *Encoder) Str(key, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.OK = false
			return
		}
	}
	e.B = append(append(append(append(e.B, key...), '"'), s...), '"')
}

// Time writes t as Time.MarshalJSON does, which refuses a year that is not
// four digits wide and a zone offset of a day or more.
func (e *Encoder) Time(key string, t time.Time) {
	_, off := t.Zone()
	e.OK = e.OK && 0 <= t.Year() && t.Year() <= 9999 && -24*3600 < off && off < 24*3600
	e.B = t.AppendFormat(append(append(e.B, key...), '"'), time.RFC3339Nano)
	e.B = append(e.B, '"')
}

// AppendList writes key and then list the way encoding/json does: null
// when nil, item writing each element.
func AppendList[T any](e *Encoder, key string, list []T, item func(*T)) {
	if e.Raw(key); list == nil {
		e.Raw(`null`)
		return
	}
	e.Raw(`[`)
	for i := range list {
		if i > 0 {
			e.Raw(`,`)
		}
		item(&list[i])
	}
	e.Raw(`]`)
}

// Omit writes an omitempty member, key and v with write unless v is zero,
// and reports whether it wrote. It takes no strings, which would escape.
func Omit[T int64 | uint64 | float64 | bool](key string, v T, write func(string, T)) bool {
	if v == *new(T) {
		return false
	}
	write(key, v)
	return true
}

// Decoder reads back what Encoder writes: the exact key literals in
// declared order, no whitespace, strings of ASCII without a control byte,
// a quote or a backslash, numbers in the JSON grammar (integers without a
// fraction or an exponent). Anything else clears OK — whitespace, escapes,
// non-ASCII, reordered, duplicate, unknown or case-folded keys, null for
// a scalar, trailing bytes — as encoding/json gives each a meaning of its
// own. Src, when set, is the whole input as a string, which Str then
// slices instead of copying.
type Decoder struct {
	B   []byte // input not yet consumed
	OK  bool
	Src string
}

// Done reports whether the whole input decoded.
func (d *Decoder) Done() bool { return d.OK && len(d.B) == 0 }

// Skip consumes s if the input starts with it.
func (d *Decoder) Skip(s string) bool {
	if d.OK && len(d.B) >= len(s) && string(d.B[:len(s)]) == s {
		d.B = d.B[len(s):]
		return true
	}
	return false
}

// Lit consumes s, or clears OK.
func (d *Decoder) Lit(s string) bool {
	if !d.Skip(s) {
		d.OK = false
	}
	return d.OK
}

// number consumes key and the number after it, and returns the number's
// text: -?(0|[1-9][0-9]*), then for a float an optional fraction and
// exponent. strconv parses more than JSON does (inf, 0x1p3, +1, 01), so
// the grammar is checked first; whatever ends the match must be the next
// literal. The scan also sums the digits, the point dropped, into m: nd
// counts them from the first nonzero one, so m is exact while nd <= 19,
// and frac counts those after the point. An exponent sets nd past 19, as
// m is then not the value's digits.
func (d *Decoder) number(key string, float bool) (s []byte, m uint64, nd, frac int) {
	if !d.Lit(key) {
		return nil, 0, 0, 0
	}
	b, i := d.B, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	j, m, nd := digits(b, i, 0, 0)
	ok := j > i && (b[i] != '0' || j == i+1)
	if i = j; ok && float && i < len(b) && b[i] == '.' {
		j, m, nd = digits(b, i+1, m, nd)
		ok, frac, i = j > i+1, j-i-1, j
	}
	if ok && float && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, _, _ = digits(b, i, 0, 0) // ParseFloat refuses an exponent without digits
		nd = 20
	}
	if !ok {
		d.OK = false
		return nil, 0, 0, 0
	}
	d.B = b[i:]
	return b[:i], m, nd, frac
}

// digits scans the digits from b[i] on, adding each to m and counting in
// nd those from m's first nonzero digit on; past 19 of them m wraps.
func digits(b []byte, i int, m uint64, nd int) (int, uint64, int) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if m = 10*m + uint64(b[i]-'0'); m != 0 {
			nd++
		}
	}
	return i, m, nd
}

// integer consumes key and an integer, parsed the way encoding/json fills
// an integer field of bitSize bits; a value out of range clears OK. The
// text has passed number's grammar, which allows no leading zero, so 18
// digits cannot leave an int64's range and number's sum is the value.
func (d *Decoder) integer(key string, bitSize int) int64 {
	s, m, nd, _ := d.number(key, false)
	if bitSize == 64 && len(s) > 0 && nd <= 18 {
		if s[0] == '-' {
			return -int64(m)
		}
		return int64(m)
	}
	n, err := strconv.ParseInt(string(s), 10, bitSize)
	d.OK = d.OK && err == nil
	return n
}

// Int consumes key and an integer that fits an int.
func (d *Decoder) Int(key string) int { return int(d.integer(key, strconv.IntSize)) }

// Int64 consumes key and an integer that fits an int64.
func (d *Decoder) Int64(key string) int64 { return d.integer(key, 64) }

// Uint consumes key and an integer, parsed the way encoding/json fills a
// uint64 field: a minus sign, even on zero, clears OK.
func (d *Decoder) Uint(key string) uint64 {
	s, _, _, _ := d.number(key, false)
	n, err := strconv.ParseUint(string(s), 10, 64)
	d.OK = d.OK && err == nil
	return n
}

// Float consumes key and a number, parsed as encoding/json fills a
// float64 field; a value out of range clears OK. Text without an exponent
// whose digits make an integer m < 2^53, with at most 22 after the point,
// is m/10^frac: both are exact doubles, so the one correctly rounded
// division gives the double nearest the decimal, which is ParseFloat's
// answer. Other text goes to ParseFloat.
func (d *Decoder) Float(key string) float64 {
	s, m, nd, frac := d.number(key, true)
	if nd <= 19 && m < 1<<53 && frac < len(pow10) && len(s) > 0 {
		f := float64(m) / pow10[frac]
		if s[0] == '-' {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(s), 64)
	d.OK = d.OK && err == nil
	return f
}

// pow10 holds the powers of ten that are exact doubles.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Bool consumes key and true or false.
func (d *Decoder) Bool(key string) bool {
	if d.Lit(key) && d.Skip(`true`) {
		return true
	}
	d.Lit(`false`)
	return false
}

// Quoted consumes key and the string after it, and returns the string
// with its quotes.
func (d *Decoder) Quoted(key string) []byte {
	if d.Lit(key) && len(d.B) > 0 && d.B[0] == '"' {
		for i := 1; i < len(d.B); i++ {
			c := d.B[i]
			if c == '"' {
				q := d.B[:i+1]
				d.B = d.B[i+1:]
				return q
			}
			if c < 0x20 || c >= 0x80 || c == '\\' {
				break
			}
		}
	}
	d.OK = false
	return nil
}

// Str consumes key and a string, and returns it unquoted.
func (d *Decoder) Str(key string) string {
	q := d.Quoted(key)
	if len(q) <= 2 {
		return ""
	}
	if d.Src != "" {
		end := len(d.Src) - len(d.B) - 1
		return d.Src[end-(len(q)-2) : end]
	}
	return string(q[1 : len(q)-1])
}

// Time decodes through (*time.Time).UnmarshalJSON, the method
// encoding/json calls, so the location and wall bits are the same.
func (d *Decoder) Time(key string, t *time.Time) {
	if q := d.Quoted(key); q == nil || t.UnmarshalJSON(q) != nil {
		d.OK = false
	}
}

// ReadList consumes key and reads a list the way json.Unmarshal fills a
// nil slice — null is a nil list, [] an empty one — with item decoding
// each element in place. hint sizes the list.
func ReadList[T any](d *Decoder, key string, hint int, item func(*T)) []T {
	if !d.Lit(key) || d.Skip(`null`) {
		return nil
	}
	l := make([]T, 0, hint)
	if d.Lit(`[`); d.Skip(`]`) {
		return l
	}
	for more := d.OK; more; more = d.Skip(`,`) {
		l = append(l, *new(T))
		item(&l[len(l)-1])
	}
	d.Lit(`]`)
	return l
}

// Opt reads an omitempty member into *v with read, if key comes next.
func Opt[T any](d *Decoder, key string, v *T, read func(string) T) bool {
	if !d.Skip(key) {
		return false
	}
	*v = read(``)
	return true
}
