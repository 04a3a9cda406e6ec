package quicknn

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	pts := []Point{{X: 1.5, Y: -2.25, Z: 0.125}, {X: 100, Y: 200, Z: -300}}
	var buf bytes.Buffer
	if err := WriteFrameCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range pts {
		if math.Abs(float64(got[i].X-pts[i].X)) > 1e-3 ||
			math.Abs(float64(got[i].Y-pts[i].Y)) > 1e-3 ||
			math.Abs(float64(got[i].Z-pts[i].Z)) > 1e-3 {
			t.Errorf("point %d: %v vs %v", i, got[i], pts[i])
		}
	}
}

func TestCSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1,2,3\n 4 , 5 , 6 \n7,8,9,0.5\n"
	got, err := ReadFrameCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != (Point{X: 4, Y: 5, Z: 6}) {
		t.Errorf("parsed %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadFrameCSV(strings.NewReader("1,2\n")); err == nil {
		t.Error("short row should fail")
	}
	if _, err := ReadFrameCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("non-numeric row should fail")
	}
}

func TestBinaryRoundTripExact(t *testing.T) {
	pts, _ := SuccessiveFrames(500, 3)
	var buf bytes.Buffer
	if err := WriteFrameBinary(&buf, pts); err != nil {
		t.Fatal(err)
	}
	// 8-byte header + 12 bytes per point, the accelerator's frame layout.
	if buf.Len() != 8+12*len(pts) {
		t.Errorf("encoded size = %d", buf.Len())
	}
	got, err := ReadFrameBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d not bit-identical", i)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadFrameBinary(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header should fail")
	}
	bad := make([]byte, 8)
	if _, err := ReadFrameBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	var buf bytes.Buffer
	_ = WriteFrameBinary(&buf, []Point{{X: 1, Y: 2, Z: 3}})
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadFrameBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body should fail")
	}
	// A header claiming 4M points over a one-point body must fail without
	// allocating for the claim (48 MiB); a claim near the 2^28 cap once
	// took the fuzzer's worker down.
	claim := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(claim[4:8], 1<<22)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameBinary(bytes.NewReader(claim))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("body shorter than the header's count should fail")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4<<20 {
		t.Errorf("short frame claiming 4M points allocated %d bytes, want <= 4 MiB", delta)
	}
}

func TestSearchRadiusFacade(t *testing.T) {
	ref, _ := SuccessiveFrames(3000, 4)
	ix := NewIndex(ref)
	res := ix.SearchRadius(ref[10], 2.0)
	if len(res) == 0 || res[0].DistSq != 0 {
		t.Fatalf("radius search should find the point itself: %+v", res[:min(len(res), 3)])
	}
	for _, r := range res {
		if r.DistSq > 4.0 {
			t.Fatalf("result outside radius: %v", r.DistSq)
		}
	}
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	ref, qry := SuccessiveFrames(3000, 50)
	ix := NewIndex(ref, WithBucketSize(128))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), ix.Len())
	}
	for i := 0; i < 60; i++ {
		q := qry[i*47%len(qry)]
		a := ix.Search(q, 5)
		b := loaded.Search(q, 5)
		if len(a) != len(b) {
			t.Fatal("length mismatch")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("results differ after load")
			}
		}
	}
	// The reconstructed reference slice maps neighbor indices correctly.
	res := loaded.Search(qry[0], 1)
	if res[0].Point != loaded.Points()[res[0].Index] {
		t.Error("reference reconstruction broke index mapping")
	}
	// Loaded indexes stay updatable.
	loaded.Update(qry)
	if loaded.Len() != len(qry) {
		t.Errorf("update after load: %d points", loaded.Len())
	}
}

// goldenIndex rebuilds the index behind testdata/index_v1.qkdt: a
// 2000-point scene (SuccessiveFrames seed 13) built with 64-point buckets
// and then updated to the next frame, so the dump carries rebalanced
// buckets, dead bucket slots and non-empty free lists. The file was written
// by the float32-AoS arena's WriteTo; it pins the serialized format (v1)
// bit for bit across changes to the in-memory arena layout.
func goldenIndex(t *testing.T) (*Index, []Point) {
	t.Helper()
	ref, qry := SuccessiveFrames(2000, 13)
	ix, err := BuildIndex(ref, WithBucketSize(64))
	if err != nil {
		t.Fatal(err)
	}
	ix.Update(qry)
	return ix, ref
}

func TestIndexDumpMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/index_v1.qkdt")
	if err != nil {
		t.Fatal(err)
	}
	ix, queries := goldenIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("WriteTo wrote %d bytes that differ from the %d-byte golden dump", buf.Len(), len(golden))
	}
	loaded, err := LoadIndex(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := loaded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("re-serializing the loaded golden dump changed its bytes")
	}
	ctx := context.Background()
	for _, opts := range []QueryOptions{
		{Mode: ModeApprox, K: 8},
		{Mode: ModeExact, K: 8},
		{Mode: ModeChecks, K: 8, Checks: 256},
		{Mode: ModeRadius, Radius: 1.5},
	} {
		for i := 0; i < len(queries); i += 7 {
			want, err := ix.Query(ctx, queries[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Query(ctx, queries[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v query %d: %d neighbors after load, want %d", opts.Mode, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%v query %d neighbor %d: %+v after load, want %+v", opts.Mode, i, j, got[j], want[j])
				}
			}
		}
	}
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage accepted")
	}
}
