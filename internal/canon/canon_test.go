package canon

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"nlarm/internal/rng"
)

// checkFloat requires Float to write json.Marshal's bytes after the key,
// or, for a value json.Marshal refuses, to clear OK and write nothing.
func checkFloat(t testing.TB, f float64) {
	t.Helper()
	e := Encoder{B: []byte(`{"k":`), OK: true}
	e.Float(``, f)
	want, err := json.Marshal(f)
	if err != nil {
		if e.OK || string(e.B) != `{"k":` {
			t.Fatalf("Float(%v): wrote %q, OK %v; json.Marshal refuses it", f, e.B, e.OK)
		}
		return
	}
	if got := string(e.B[len(`{"k":`):]); !e.OK || got != string(want) {
		t.Fatalf("Float(%v) = %q (OK %v), json.Marshal %q", f, got, e.OK, want)
	}
}

// below draws from [0, n).
func below(r *rng.Rand, n int64) int64 { return int64(r.Uint64() % uint64(n)) }

// TestFloatMatchesJSON compares Float with json.Marshal on seeded values:
// the job trace's times (Duration.Seconds, which must take the integer
// path whenever it is the double nearest its nanoseconds), n/1e9 and its
// neighbours below 1e15 and up to 2^53 (see checkNanos), the edges of
// the integer path and of %f, values that must fall back, integral
// doubles near 1e6, 1e15, 2^53-1 and 2^53 with both neighbours, and NaN
// and ±Inf.
func TestFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), -1, 1, 999e-9, 1e-6, 1e6 - 1e-9, -(1e6 - 1e-9), 1e6, 1e21,
		5e-324, math.MaxFloat64, math.Pi, 0.1, 1234567.123456789, -987654.3210987654, 0.12345678901234567} {
		checkFloat(t, f)
	}
	for _, f := range []float64{1e6 - 1e-9, -(1e6 - 1e-9), 1e-6, -1e-6, 1.5, 86400, 1e6, 1234567.123456789, -4503599.627370497} {
		if _, ok := nanos(f); !ok {
			t.Errorf("%v falls back; want the integer path", f)
		}
	}
	// Past 1e15 ns they fall back on 17 digits, on the 2^53 ns bound, and
	// where the 15-digit 8388608.00000001 or two 16-digit decimals
	// (8388608.000000001 and ...002) round to the same double.
	for _, f := range []float64{999e-9, math.Pi, -987654.3210987654, 0.12345678901234567, 1e-10,
		1 << 53 / 1e9, 8388608.00000001, -8388608.000000002} {
		if _, ok := nanos(f); ok {
			t.Errorf("%v takes the integer path; want the fallback", f)
		}
	}
	// Integral doubles from their int64, up to 2^53 and past it, with both
	// neighbours: above 1e6 they miss the nanosecond path.
	for _, n := range []float64{1e6, 1e15, 1<<53 - 1, 1 << 53} {
		for _, f := range []float64{n, math.Nextafter(n, 0), math.Nextafter(n, math.Inf(1))} {
			checkFloat(t, f)
			checkFloat(t, -f)
		}
	}
	// n/1e9 for every n within 64 ns of 1e15, 2^52, 2^23 s and 2^53, of
	// either sign, and the doubles on either side.
	for _, c := range []int64{1e15, 1 << 52, 1 << 23 * 1e9, 1 << 53} {
		for n := c - 64; n <= c+64; n++ {
			for _, m := range []int64{n, -n} {
				f := float64(m) / 1e9
				checkFloat(t, f)
				checkFloat(t, math.Nextafter(f, 0))
				checkFloat(t, math.Nextafter(f, math.Inf(1)))
				checkNanos(t, f, m)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := nanos(f); ok {
			t.Errorf("%v takes the integer path", f)
		}
		checkFloat(t, f)
	}

	r := rng.New(44)
	const draws = 40000
	eligible, fast := 0, 0
	for i := 0; i < draws; i++ {
		d := time.Duration(below(r, 1e15))
		if i%2 == 0 { // every magnitude, not mostly 1e14
			d = time.Duration(below(r, int64(math.Pow10(1+r.Intn(15)))))
		}
		if i%5 == 0 {
			d = -d
		}
		f := d.Seconds()
		checkFloat(t, f)
		// Seconds rounds twice, so it is n/1e9's nearest double almost,
		// not quite, always; whenever it is, the integer path applies.
		if _, ok := nanos(f); d.Abs() >= 1000 {
			eligible++
			if ok {
				fast++
			} else if f == float64(d)/1e9 {
				t.Fatalf("%v (%d ns) falls back", f, d)
			}
		}

		n := below(r, 2e15) - 1e15
		g := float64(n) / 1e9
		checkFloat(t, g)
		checkFloat(t, math.Nextafter(g, math.Inf(1)))
		checkFloat(t, math.Nextafter(g, math.Inf(-1)))
		if m, ok := nanos(g); n <= -1000 || n >= 1000 {
			if !ok || m != n {
				t.Fatalf("%v (%d ns): nanos = %d, %v", g, n, m, ok)
			}
		}
		checkFloat(t, math.Float64frombits(r.Uint64()))

		n = 1e15 + below(r, 1<<53-1e15)
		if i%3 == 0 {
			n = -n
		}
		g = float64(n) / 1e9
		checkFloat(t, g)
		checkFloat(t, math.Nextafter(g, math.Inf(1)))
		checkFloat(t, math.Nextafter(g, math.Inf(-1)))
		checkNanos(t, g, n)
	}
	if fast < eligible*99/100 {
		t.Fatalf("%d of %d Duration.Seconds values of 1 µs or more took the integer path", fast, eligible)
	}
}

// checkNanos holds nanos to n/1e9's double g, 1e3 <= |n| <= 2^53. Below
// 2^23 s a double is narrower than a nanosecond, so g takes the integer
// path with n itself. Above, g may fall back, or give a shorter decimal
// that rounds to g as well (a multiple of 10 ns), never another n.
func checkNanos(t testing.TB, g float64, n int64) {
	t.Helper()
	m, ok := nanos(g)
	switch a := max(n, -n); {
	case ok && m != n && (m%10 != 0 || float64(m)/1e9 != g):
		t.Fatalf("%v (%d ns): nanos = %d", g, n, m)
	case (!ok || m != n) && a < 1<<23*1e9:
		t.Fatalf("%v (%d ns): nanos = %d, %v", g, n, m, ok)
	}
}

// FuzzFloat holds Float to json.Marshal's bytes on any float64, on the
// seconds of any duration, and on any integral double.
func FuzzFloat(f *testing.F) {
	for _, v := range []float64{0, -1, 999e-9, 1e-6, 1e6 - 1e-9, 1.5, math.Pi, 1e21} {
		f.Add(v, int64(v*1e9))
	}
	for _, n := range []int64{1e6 + 1, 1e15, 1<<53 - 1, 1 << 53, -(1<<53 + 1)} {
		f.Add(float64(n), n)
	}
	// Seconds past 1e6: the 16-digit integer path, a double wider than a
	// nanosecond above 2^23 s, and the path's upper end.
	for _, n := range []int64{1e15 + 1, -(1e15 + 7), 1<<52 + 1, 1<<23*1e9 + 3, 1<<53 - 1, -(1<<53 - 3)} {
		f.Add(float64(n)/1e9, n)
	}
	f.Fuzz(func(t *testing.T, v float64, ns int64) {
		for _, g := range []float64{v, time.Duration(ns).Seconds(), float64(ns)} {
			checkFloat(t, g)
			// What Float writes reads back to ParseFloat's bits.
			e := Encoder{OK: true}
			if e.Float(``, g); e.OK {
				checkFloatText(t, string(e.B))
			}
		}
	})
}

// checkFloatText requires Decoder.Float to read s to the bits
// strconv.ParseFloat gives it, or to clear OK where encoding/json
// refuses s.
func checkFloatText(t testing.TB, s string) {
	t.Helper()
	d := Decoder{B: []byte(`{"k":` + s + `}`), OK: true}
	got := d.Float(`{"k":`)
	d.Lit(`}`)
	var ref float64
	if err := json.Unmarshal([]byte(s), &ref); err != nil {
		if d.Done() {
			t.Fatalf("Float(%s) = %v; json.Unmarshal refuses it: %v", s, got, err)
		}
		return
	}
	want, err := strconv.ParseFloat(s, 64)
	if !d.Done() || err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Float(%s) = %v (%#x, OK %v); ParseFloat %v (%#x, err %v)",
			s, got, math.Float64bits(got), d.Done(), want, math.Float64bits(want), err)
	}
}

// TestFloatTextMatchesParseFloat holds Decoder.Float to ParseFloat's bits
// on each side of its m/10^frac path: mantissas of 15 and 16 digits
// around 2^53, 17 digits, -0 and zeros with a fraction, leading zeros in
// the fraction, 22 fraction digits and 23, exponents, and seeded draws.
func TestFloatTextMatchesParseFloat(t *testing.T) {
	texts := []string{"0", "-0", "0.000", "-0.000", "0.0", "1", "-1", "0.1", "0.001", "0.000123", "-0.000000000000000001",
		"999999999999999", "0.999999999999999", "99999999999999.9", "9007199254740991", "9007199254740992",
		"9007199254740993", "900719925474099.1", "0.9007199254740993", "1234567890123456", "12345678901234567",
		"0.12345678901234567", "0.1234567890123456789012", "0.00000000000000000000001", "1.00000000000000000000",
		"12345678901234567890", "123456789012345678901", "1e3", "1E-3", "1.5e+2", "-2.5e-324", "1e400", "1e-400",
		"5e-324", "1.7976931348623157e308", "179769313486231570000000000000000000000", "01", "1.", ".5", "-", "+1", "1e"}
	r := rng.New(45)
	for range 20000 {
		m := r.Uint64() >> (r.Uint64() % 64)
		s := strconv.FormatUint(m, 10)
		if p := int(r.Uint64() % 25); p > 0 {
			s = strings.Repeat("0", max(0, p+1-len(s))) + s
			s = s[:len(s)-p] + "." + s[len(s)-p:]
		}
		if r.Uint64()%3 == 0 {
			s = "-" + s
		}
		texts = append(texts, s)
	}
	for _, s := range texts {
		checkFloatText(t, s)
	}
}

// TestMilliMatchesJSON holds Milli(k) to json.Marshal(float64(k)/1000) at
// the fraction's edges, at the integer path's 1e15 bound and on seeded
// draws of every magnitude, either sign.
func TestMilliMatchesJSON(t *testing.T) {
	ks := []int64{0, 1, -1, 999, -999, 1000, -1000, 1001, 10, 100, 1010, 1100, 1e12, 1e15 - 1, -(1e15 - 1), 1e15,
		-1e15, 1e15 + 1, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	r := rng.New(46)
	for range 10000 {
		k := int64(r.Uint64() >> (r.Uint64() % 64))
		if r.Uint64()%2 == 0 {
			k = -k
		}
		ks = append(ks, k)
	}
	for _, k := range ks {
		e := Encoder{B: []byte(`{"k":`), OK: true}
		e.Milli(``, k)
		if got, want := string(e.B[len(`{"k":`):]), string(must(json.Marshal(float64(k)/1000))); !e.OK || got != want {
			t.Fatalf("Milli(%d) = %q (OK %v), json.Marshal %q", k, got, e.OK, want)
		}
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func BenchmarkFloat(b *testing.B) {
	r := rng.New(1)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = time.Duration(below(r, 1e14)).Seconds()
	}
	e := Encoder{OK: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.B = e.B[:0]
		e.Float(`,"t":`, vals[i%len(vals)])
	}
}

// TestIntegerMatchesJSON holds Int64 and Int to json.Unmarshal on both
// sides of the 18-character edge of the summed path and at the ends of
// the range, where values out of range clear OK.
func TestIntegerMatchesJSON(t *testing.T) {
	r := rng.New(7)
	texts := []string{"0", "-0", "7", "-7", "999999999999999999", "-99999999999999999",
		"-999999999999999999", "1000000000000000000", "9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "-9223372036854775809", "01", "-", "1.5", "1e3"}
	for range 2000 {
		n := int64(r.Uint64() >> (r.Uint64() % 64))
		if r.Uint64()%2 == 0 {
			n = -n
		}
		texts = append(texts, strconv.FormatInt(n, 10))
	}
	for _, s := range texts {
		var want int64
		err := json.Unmarshal([]byte(s), &want)
		d := Decoder{B: []byte(`{"k":` + s + `}`), OK: true}
		got := d.Int64(`{"k":`)
		d.Lit(`}`)
		if d.Done() != (err == nil) || err == nil && got != want {
			t.Fatalf("Int64(%s) = %d, OK %v; json.Unmarshal %d, err %v", s, got, d.Done(), want, err)
		}
	}
}
