package pta

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"

	"repro/internal/temporal"
)

// Fingerprint returns a stable content hash of the series: two series with
// the same schema (grouping attributes, aggregate names), the same grouping
// values per row, the same aggregate values and the same validity intervals
// fingerprint identically — regardless of how their group dictionaries
// assigned ids. It is the cache key half a serving layer needs to recognize
// a hot series across requests (the other half is the strategy's DPClass and
// the evaluation weights).
//
// The hash covers values exactly (float bits, not formatted decimals), and
// every variable-length field is length-prefixed, so distinct series cannot
// collide by concatenation. The input reaches the hash through one buffer,
// in blocks, not one Write per field; the digest is the same.
func Fingerprint(s *Series) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	u64 := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	str := func(v string) {
		u64(uint64(len(v)))
		if len(buf)+len(v) > cap(buf) {
			flush()
		}
		if len(v) > cap(buf) {
			io.WriteString(h, v)
			return
		}
		buf = append(buf, v...)
	}
	datum := func(d temporal.Datum) {
		u64(uint64(d.Kind()))
		switch d.Kind() {
		case temporal.KindInt:
			u64(uint64(d.IntVal()))
		case temporal.KindFloat:
			u64(math.Float64bits(d.FloatVal()))
		default:
			str(d.Text())
		}
	}

	u64(uint64(len(s.GroupAttrs)))
	for _, a := range s.GroupAttrs {
		str(a.Name)
		u64(uint64(a.Kind))
	}
	u64(uint64(len(s.AggNames)))
	for _, n := range s.AggNames {
		str(n)
	}
	u64(uint64(len(s.Rows)))
	for _, r := range s.Rows {
		vals := s.Groups.Values(r.Group)
		u64(uint64(len(vals)))
		for _, v := range vals {
			datum(v)
		}
		for _, a := range r.Aggs {
			u64(math.Float64bits(a))
		}
		u64(uint64(r.T.Start))
		u64(uint64(r.T.End))
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}
