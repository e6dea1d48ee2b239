package monitor

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

func (g tickGen) livehosts() livehostsRecord {
	rec := livehostsRecord{Replica: g.r.Intn(5) - 1, At: g.time()}
	if n := g.r.Intn(5); n > 0 || g.r.Intn(2) == 0 {
		rec.Hosts = make([]int, n)
		for i := range rec.Hosts {
			rec.Hosts[i] = g.r.Intn(1 << 12)
		}
	}
	return rec
}

// checkDecode decodes b as a T three ways — decodeRecord, unmarshalJSON
// and json.Unmarshal, each into a fresh zero value — and fails unless
// unmarshalJSON agrees with json.Unmarshal on the value and the error, and
// decodeRecord either agrees with json.Unmarshal (which must then succeed)
// or refuses and leaves its value untouched. It reports whether
// decodeRecord took b.
func checkDecode[T any](t testing.TB, b []byte) bool {
	t.Helper()
	var fast, got, want T
	took := decodeRecord(b, &fast)
	wantErr := json.Unmarshal(b, &want)
	switch {
	case took && (wantErr != nil || !reflect.DeepEqual(fast, want)):
		t.Fatalf("%T from %q:\nfast path %#v\njson      %#v (err %v)", want, b, fast, want, wantErr)
	case !took && !reflect.DeepEqual(fast, *new(T)):
		t.Fatalf("%T from %q: refused, but wrote %#v", want, b, fast)
	}
	if err := unmarshalJSON(b, &got); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\nunmarshalJSON %#v (err %v)\njson          %#v (err %v)", want, b, got, err, want, wantErr)
	}
	return took
}

// recordChecks holds checkDecode for the five record types, in the order
// kindOf numbers them.
var recordChecks = [...]func(testing.TB, []byte) bool{
	checkDecode[metrics.NodeAttrs],
	checkDecode[heartbeat],
	checkDecode[livehostsRecord],
	checkDecode[[]metrics.PairLatency],
	checkDecode[[]metrics.PairBandwidth],
}

func kindOf(v any) int {
	switch v.(type) {
	case metrics.NodeAttrs:
		return 0
	case heartbeat:
		return 1
	case livehostsRecord:
		return 2
	case []metrics.PairLatency:
		return 3
	}
	return 4
}

// Property: for random records of the five types, as published, and for
// every mutation of them in mutate's list, unmarshalJSON returns what
// json.Unmarshal returns, the reflection-free path never disagrees with it,
// and that path takes every record the canonical encoder wrote.
func TestUnmarshalMatchesJSON(t *testing.T) {
	g := tickGen{rng.New(28)}
	const trials = 1000
	fast := 0
	for i := 0; i < trials; i++ {
		v := g.record()
		if g.r.Intn(5) == 0 {
			v = g.livehosts()
		}
		b, err := marshalJSON(v)
		if err != nil {
			continue // json.Marshal refuses it too; nothing was published
		}
		_, isLivehosts := v.(livehostsRecord)
		canonical := isLivehosts || new(tickEncoder).encode(v)
		for k, check := range recordChecks {
			if took := check(t, b); k == kindOf(v) && took {
				fast++
			} else if k == kindOf(v) && canonical {
				t.Fatalf("canonical %T fell back to json.Unmarshal: %q", v, b)
			}
		}
		for _, m := range mutate(g.r, b, i%20 == 0) {
			recordChecks[kindOf(v)](t, m)
		}
	}
	if fast < trials/3 {
		t.Fatalf("only %d of %d records took the fast path", fast, trials)
	}
}

// TestDecodeNodeAttrsAllocs pins the warmed NodeAttrs decode at its one
// allocation: the hostname.
func TestDecodeNodeAttrsAllocs(t *testing.T) {
	w := stats.Windowed{M1: 0.25, M5: 1.5, M15: 3}
	b, err := marshalJSON(metrics.NodeAttrs{
		NodeID: 7, Hostname: "csews8", Timestamp: t0.Add(1500 * time.Millisecond), Cores: 8, FreqGHz: 3.4,
		TotalMemMB: 16384, Users: 2, CPULoad: w, CPUUtilPct: w, FlowRateBps: w, AvailMemMB: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	var a metrics.NodeAttrs
	n := testing.AllocsPerRun(100, func() {
		a = metrics.NodeAttrs{}
		if !decodeRecord(b, &a) {
			t.Fatalf("fell back: %s", b)
		}
	})
	if n != 1 {
		t.Fatalf("NodeAttrs decode allocates %v times, want 1", n)
	}
}

// BenchmarkDecodeNodeAttrs times the decode of a node record as a warmed
// NodeStateD publishes it.
func BenchmarkDecodeNodeAttrs(b *testing.B) {
	st := store.NewMem()
	d, _ := warmNodeState(b, st)
	rec, err := st.Get(d.key)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var a metrics.NodeAttrs
		if !decodeRecord(rec, &a) {
			b.Fatalf("fell back: %s", rec)
		}
	}
}

// TestDecodeNodeAttrsPreviousFormat reads a node record as earlier
// daemons published it, with the two one-step-ahead forecast members
// after the running means. The reflection-free path refuses the unknown
// keys, json.Unmarshal drops them, and every other member reads as
// before.
func TestDecodeNodeAttrsPreviousFormat(t *testing.T) {
	b := []byte(`{"node_id":7,"hostname":"csews8","timestamp":"2020-01-01T00:00:01.5Z","cores":8,` +
		`"freq_ghz":3.4,"total_mem_mb":16384,"users":2,` +
		`"cpu_load":{"M1":0.25,"M5":1.5,"M15":3},"cpu_util_pct":{"M1":12.5,"M5":10,"M15":9.75},` +
		`"flow_rate_bps":{"M1":1200000,"M5":1100000,"M15":1000000},"avail_mem_mb":{"M1":9000,"M5":9100,"M15":9200},` +
		`"cpu_load_forecast":{"value":0.75,"method":"median-20"},` +
		`"flow_rate_forecast":{"value":1200000,"method":"exp-0.2"}}`)
	want := metrics.NodeAttrs{
		NodeID: 7, Hostname: "csews8", Timestamp: time.Date(2020, 1, 1, 0, 0, 1, 5e8, time.UTC),
		Cores: 8, FreqGHz: 3.4, TotalMemMB: 16384, Users: 2,
		CPULoad:     stats.Windowed{M1: 0.25, M5: 1.5, M15: 3},
		CPUUtilPct:  stats.Windowed{M1: 12.5, M5: 10, M15: 9.75},
		FlowRateBps: stats.Windowed{M1: 1.2e6, M5: 1.1e6, M15: 1e6},
		AvailMemMB:  stats.Windowed{M1: 9000, M5: 9100, M15: 9200},
	}
	var fast metrics.NodeAttrs
	if decodeRecord(b, &fast) {
		t.Fatal("the reflection-free path took a record with unknown members")
	}
	var got metrics.NodeAttrs
	if err := unmarshalJSON(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v\nwant %+v", got, want)
	}
}

// FuzzUnmarshalRecords checks checkDecode's equivalence for every record
// type on arbitrary bytes, seeded with what the golden rig publishes
// (matrices cut to two pairs) and mutate's list applied to it.
func FuzzUnmarshalRecords(f *testing.F) {
	last := golden().seeds
	families := make([]string, 0, len(last))
	for family := range last {
		families = append(families, family)
	}
	sort.Strings(families)
	var seeds [][]byte
	for _, family := range families {
		b := last[family]
		switch v := recordFor(family).(type) {
		case *[]metrics.PairLatency:
			if err := json.Unmarshal(b, v); err != nil {
				f.Fatal(err)
			}
			b = must(marshalJSON((*v)[:2]))
		case *[]metrics.PairBandwidth:
			if err := json.Unmarshal(b, v); err != nil {
				f.Fatal(err)
			}
			b = must(marshalJSON((*v)[:2]))
		}
		seeds = append(seeds, b)
	}
	r := rng.New(28)
	for _, b := range seeds {
		f.Add(b)
		for _, m := range mutate(r, b, false) {
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, check := range recordChecks {
			check(t, b)
		}
	})
}

// mutate returns variants of the JSON b in which encoding/json reads a
// different value, or none, or the same value from a different spelling:
// truncations (at every offset when everyCut), byte flips, deletions and
// inserted whitespace, trailing bytes; numbers with leading zeros, out of
// range, -0, overflowing an int, with a fraction or a spelling strconv
// accepts and JSON does not; \u escapes, raw non-ASCII, invalid UTF-8 and
// control bytes in strings and keys; times in other zones; reordered,
// duplicated (with another value), unknown, case-folded, dropped and null
// members; lists emptied, nulled, given a null element or a trailing comma.
func mutate(r *rng.Rand, b []byte, everyCut bool) [][]byte {
	var out [][]byte
	splice := func(at, end int, with string) {
		m := append(append(append([]byte(nil), b[:at]...), with...), b[end:]...)
		out = append(out, m)
	}
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	if everyCut {
		for i := range b {
			out = append(out, b[:i])
		}
	} else {
		out = append(out, b[:r.Intn(len(b))])
	}
	for k := 0; k < 4; k++ {
		i := r.Intn(len(b))
		splice(i, i+1, string(b[i]^byte(1<<r.Intn(8))))
		splice(i, i+1, "")
		i = r.Intn(len(b) + 1)
		splice(i, i, pick(" ", "\t", "\n", "\r"))
	}
	splice(len(b), len(b), pick(" ", "x", "{}", ",", "\n", "0"))
	splice(0, len(b), "null")

	lx := lex(b)
	for k := 0; k < 3 && len(lx.nums) > 0; k++ {
		s := lx.nums[r.Intn(len(lx.nums))]
		num := string(b[s[0]:s[1]])
		splice(s[0], s[1], pick("0"+num, num+".0", num+"e0", "1e400", "-1e400", "-0", "9223372036854775807",
			"9223372036854775808", "-9223372036854775809", "1.0", "1E2", "0x10", "+1", "Inf", "NaN", ".5", "1.",
			"1e", "1e+", "-", "01", "-01", "1_0", "0x1p3", "5e-324", "1.8e308", `"1"`, "true", "null"))
	}
	for k := 0; k < 3 && len(lx.strs) > 0; k++ {
		s := lx.strs[r.Intn(len(lx.strs))]
		for j := s[0] + 1; j < s[1]-1; j++ {
			if c := b[j]; 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
				splice(j, j+1, fmt.Sprintf(`\u%04x`, c))
				break
			}
		}
		j := s[0] + 1 + r.Intn(s[1]-s[0]-1)
		splice(j, j, pick("é", "\xff", "\xed\xa0\x80", "\x7f", "\x01", "\u2028", `\"`, `\\`, "<"))
		if z := strings.LastIndex(string(b[s[0]:s[1]]), `Z"`); z > 0 {
			splice(s[0]+z, s[0]+z+1, pick("+05:30", "-00:00", "+00:00", "-03:15", "+24:00", "z", "+0530"))
		}
	}
	for k := 0; k < 4 && len(lx.objs) > 0; k++ {
		o := lx.objs[r.Intn(len(lx.objs))]
		ms := members(b[o[0]:o[1]])
		if len(ms) == 0 {
			continue
		}
		i := r.Intn(len(ms))
		key, val, _ := strings.Cut(ms[i], ":")
		edited := func(f func(ms []string) []string) {
			splice(o[0], o[1], "{"+strings.Join(f(append([]string(nil), ms...)), ",")+"}")
		}
		if i+1 < len(ms) {
			edited(func(ms []string) []string { ms[i], ms[i+1] = ms[i+1], ms[i]; return ms })
		}
		other := key + ":" + map[byte]string{'"': `"2001-02-03T04:05:06Z"`, '{': "null", '[': "[]", 'n': "[]"}[val[0]]
		if other == key+":" {
			other = key + ":7"
		}
		edited(func(ms []string) []string { return append(ms[:i+1], append([]string{other}, ms[i+1:]...)...) })
		edited(func(ms []string) []string { return append([]string{other}, ms...) })
		edited(func(ms []string) []string { return append(ms[:i], append([]string{`"zz":1`}, ms[i:]...)...) })
		edited(func(ms []string) []string { ms[i] = swapCase(key) + ":" + val; return ms })
		edited(func(ms []string) []string { ms[i] = key + ":null"; return ms })
		edited(func(ms []string) []string { return append(ms[:i], ms[i+1:]...) })
	}
	for _, a := range lx.lists {
		splice(a[0], a[1], pick("[]", "null", "[null]", "[,]"))
		if a[1]-a[0] > 2 {
			splice(a[1]-1, a[1]-1, ",")
		}
	}
	return out
}

func swapCase(s string) string {
	return strings.Map(func(c rune) rune {
		if unicode.IsUpper(c) {
			return unicode.ToLower(c)
		}
		return unicode.ToUpper(c)
	}, s)
}

// lexed holds the [start, end) spans of the tokens mutate edits.
type lexed struct{ nums, strs, objs, lists [][2]int }

// lex finds every number, string (key or value, quotes included), object
// and list in the valid JSON b.
func lex(b []byte) lexed {
	var lx lexed
	var open []int
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			j := i + 1
			for ; b[j] != '"'; j++ {
				if b[j] == '\\' {
					j++
				}
			}
			lx.strs = append(lx.strs, [2]int{i, j + 1})
			i = j
		case c == '-' || '0' <= c && c <= '9':
			j := i
			for j < len(b) && strings.IndexByte("-+.eE0123456789", b[j]) >= 0 {
				j++
			}
			lx.nums = append(lx.nums, [2]int{i, j})
			i = j - 1
		case c == '{' || c == '[':
			open = append(open, i)
		case c == '}' || c == ']':
			s := [2]int{open[len(open)-1], i + 1}
			open = open[:len(open)-1]
			if c == '}' {
				lx.objs = append(lx.objs, s)
			} else {
				lx.lists = append(lx.lists, s)
			}
		}
	}
	return lx
}

// members splits the JSON object obj into its "key":value members.
func members(obj []byte) []string {
	var ms []string
	depth, start := 0, 1
	for i := 1; i < len(obj)-1; i++ {
		switch obj[i] {
		case '"':
			for i++; obj[i] != '"'; i++ {
				if obj[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 0 {
				ms = append(ms, string(obj[start:i]))
				start = i + 1
			}
		}
	}
	if start < len(obj)-1 {
		ms = append(ms, string(obj[start:len(obj)-1]))
	}
	return ms
}
