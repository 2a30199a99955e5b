//go:build race

package wiss

import "gammajoin/internal/tuple"

// poisonByte fills every byte of a recycled page in race-detector builds.
// It makes every integer attribute 0xA5A5A5A5, a negative value no
// generated relation holds, so a dangling reference joins on a key that
// matches nothing and the result count or checksum diverges loudly.
const poisonByte = 0xA5

// poisonTuple is one tuple's worth of poisonByte.
var poisonTuple = func() tuple.Tuple {
	var buf [tuple.Bytes]byte
	for i := range buf {
		buf[i] = poisonByte
	}
	var t tuple.Tuple
	if err := t.Unmarshal(buf[:]); err != nil {
		panic(err)
	}
	return t
}()

// poisonPage overwrites the whole backing array of a page about to return
// to pagePool, so a tuple reference that outlived its file reads garbage
// instead of whatever the page's next tenant writes. Only race builds pay
// for it; the suites that run under -race (make race, deflake, bench-sim)
// are the lifetime check.
func poisonPage(pg []tuple.Tuple) {
	pg = pg[:cap(pg)]
	for i := range pg {
		pg[i] = poisonTuple
	}
}
