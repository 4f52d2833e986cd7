package sqldb

import (
	"reflect"
	"testing"
)

// FuzzReadWAL feeds arbitrary bytes to the WAL decoder that recovery runs
// over every log it opens (readWALTxns → decodeWALTxns). The contract:
//
//   - it never panics;
//   - keep, the offset recovery truncates the log to, is at most the input
//     length;
//   - decoding data[:keep] again yields the same transactions and the same
//     keep, so truncating a log never changes what it replays.
//
// The committed corpus (testdata/fuzz/FuzzReadWAL) holds a valid
// multi-transaction log, a torn tail, a flipped CRC byte and a frame length
// above maxWALFrame.
//
//	go test -run '^$' -fuzz FuzzReadWAL -fuzztime 60s ./internal/sqldb
//
// Without -fuzz the seeds run as a regular test.
func FuzzReadWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		txns, keep := decodeWALTxns(data)
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep = %d for %d bytes", keep, len(data))
		}
		again, keep2 := decodeWALTxns(data[:keep])
		if keep2 != keep {
			t.Fatalf("re-reading data[:%d] keeps %d", keep, keep2)
		}
		if !reflect.DeepEqual(txns, again) {
			t.Fatalf("re-reading data[:%d] gives %d transactions, want %d", keep, len(again), len(txns))
		}
	})
}
