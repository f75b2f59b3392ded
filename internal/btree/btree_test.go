package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Create(pagestore.NewMemStore(512)) // small pages force splits
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func key(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func TestPutGet(t *testing.T) {
	tr := newTree(t)
	if err := tr.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestPutReplace(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("k"), []byte("v1"))
	tr.Put([]byte("k"), []byte("v2"))
	v, _ := tr.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("Get = %q", v)
	}
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, want 1", tr.Count())
	}
}

func TestManyInsertionsSplit(t *testing.T) {
	tr := newTree(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i*7919%n), key(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d; %d inserts should split", tr.Height(), n)
	}
	if tr.Count() != n {
		t.Fatalf("Count = %d, want %d", tr.Count(), n)
	}
	if cnt, err := tr.Check(); err != nil || cnt != n {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	for i := 0; i < n; i += 97 {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestScanInKeyOrder(t *testing.T) {
	tr := newTree(t)
	const n = 500
	// Insert in random-ish order.
	for i := 0; i < n; i++ {
		tr.Put(key(i*613%n), []byte{byte(i)})
	}
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	count := 0
	for c.Next() {
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], c.Key()...)
		count++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestSeek(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i += 2 {
		tr.Put(key(i), key(i))
	}
	// Seek to an absent odd key: lands on the next even one.
	c, err := tr.Seek(key(31))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Next() {
		t.Fatal("expected an entry after seek")
	}
	if !bytes.Equal(c.Key(), key(32)) {
		t.Fatalf("Seek(31) → %v, want 32", c.Key())
	}
	// Seek past the end.
	c, _ = tr.Seek(key(1000))
	if c.Next() {
		t.Fatal("seek past end should be exhausted")
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t)
	const n = 800
	for i := 0; i < n; i++ {
		tr.Put(key(i), key(i))
	}
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if tr.Count() != n/2 {
		t.Fatalf("Count = %d, want %d", tr.Count(), n/2)
	}
	for i := 0; i < n; i++ {
		_, err := tr.Get(key(i))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d still present: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving key %d lost: %v", i, err)
		}
	}
	if cnt, err := tr.Check(); err != nil || cnt != n/2 {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
}

func TestDeleteAll(t *testing.T) {
	tr := newTree(t)
	const n = 300
	for i := 0; i < n; i++ {
		tr.Put(key(i), key(i))
	}
	for i := n - 1; i >= 0; i-- {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if tr.Count() != 0 {
		t.Fatalf("Count = %d", tr.Count())
	}
	c, _ := tr.First()
	if c.Next() {
		t.Fatal("empty tree should scan nothing")
	}
	// Reuse after emptying.
	tr.Put([]byte("again"), []byte("yes"))
	if v, err := tr.Get([]byte("again")); err != nil || string(v) != "yes" {
		t.Fatalf("reuse failed: %q %v", v, err)
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("a"), []byte("1"))
	if err := tr.Delete([]byte("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestTooLargeRejected(t *testing.T) {
	tr := newTree(t)
	big := make([]byte, 400)
	if err := tr.Put([]byte("k"), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestPersistenceViaOpen(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := Create(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		tr.Put(key(i), key(i*2))
	}
	tr2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 400 {
		t.Fatalf("Count after Open = %d", tr2.Count())
	}
	v, err := tr2.Get(key(123))
	if err != nil || !bytes.Equal(v, key(246)) {
		t.Fatalf("Get after Open = %v, %v", v, err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTree(t)
	keys := []string{"a", "ab", "abc", "b", "ba", "z", "zz", "0", "00", "m"}
	for i, k := range keys {
		if err := tr.Put([]byte(k), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	c, _ := tr.First()
	i := 0
	for c.Next() {
		if string(c.Key()) != sorted[i] {
			t.Fatalf("position %d: got %q want %q", i, c.Key(), sorted[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("visited %d keys", i)
	}
}

// Property: the tree behaves like a sorted map under random put/delete.
func TestTreeMatchesMapProperty(t *testing.T) {
	tr := newTree(t)
	shadow := map[string]string{}
	op := func(ops []struct {
		K   uint16
		V   uint16
		Del bool
	}) bool {
		for _, o := range ops {
			k := string(key(int(o.K % 512)))
			if o.Del {
				_, exists := shadow[k]
				err := tr.Delete([]byte(k))
				if exists != (err == nil) {
					return false
				}
				delete(shadow, k)
			} else {
				v := string(key(int(o.V)))
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
				shadow[k] = v
			}
		}
		if tr.Count() != int64(len(shadow)) {
			return false
		}
		for k, v := range shadow {
			got, err := tr.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		cnt, err := tr.Check()
		return err == nil && cnt == int64(len(shadow))
	}
	if err := quick.Check(op, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialInsertDense(t *testing.T) {
	// Sequential insertion (the TPC-B account load) must produce a valid,
	// scannable tree.
	tr := newTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	cnt, err := tr.Check()
	if err != nil || cnt != n {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	c, _ := tr.First()
	i := 0
	for c.Next() {
		if !bytes.Equal(c.Key(), key(i)) {
			t.Fatalf("scan position %d wrong", i)
		}
		i++
	}
	if i != n {
		t.Fatalf("scan visited %d", i)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	st := pagestore.NewMemStore(512)
	st.AllocPage()
	if _, err := Open(st); err == nil {
		t.Fatal("opening garbage should fail")
	}
}

func ExampleTree() {
	st := pagestore.NewMemStore(4096)
	tr, _ := Create(st)
	tr.Put([]byte("account-42"), []byte("balance=100"))
	v, _ := tr.Get([]byte("account-42"))
	fmt.Println(string(v))
	// Output: balance=100
}

func sortedFeeder(n int) func() ([]byte, []byte, bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k := key(i)
		v := key(i * 2)
		i++
		return k, v, true
	}
}

func TestBulkLoadBasic(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(5000))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 5000 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if cnt, err := tr.Check(); err != nil || cnt != 5000 {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
	// Point lookups.
	for i := 0; i < 5000; i += 137 {
		v, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(v, key(i*2)) {
			t.Fatalf("Get(%d) = %v, %v", i, v, err)
		}
	}
	// Full ordered scan.
	c, _ := tr.First()
	i := 0
	for c.Next() {
		if !bytes.Equal(c.Key(), key(i)) {
			t.Fatalf("scan position %d wrong", i)
		}
		i++
	}
	if i != 5000 {
		t.Fatalf("scan visited %d", i)
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(2000))
	if err != nil {
		t.Fatal(err)
	}
	// Inserts, replaces, and deletes must work on a bulk-built tree.
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(10000+i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	want := int64(2000 - 1000 + 500)
	if tr.Count() != want {
		t.Fatalf("Count = %d, want %d", tr.Count(), want)
	}
	if cnt, err := tr.Check(); err != nil || cnt != want {
		t.Fatalf("Check = %d, %v", cnt, err)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 {
		t.Fatalf("Count = %d", tr.Count())
	}
	if _, err := tr.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := tr.Put(key(1), key(2)); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadSingleEntry(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := BulkLoad(st, sortedFeeder(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Count() != 1 {
		t.Fatalf("height=%d count=%d", tr.Height(), tr.Count())
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	st := pagestore.NewMemStore(512)
	vals := [][]byte{key(5), key(3)}
	i := 0
	_, err := BulkLoad(st, func() ([]byte, []byte, bool) {
		if i >= len(vals) {
			return nil, nil, false
		}
		k := vals[i]
		i++
		return k, k, true
	})
	if err == nil {
		t.Fatal("unsorted input must be rejected")
	}
}

func TestBulkLoadRejectsDuplicates(t *testing.T) {
	st := pagestore.NewMemStore(512)
	i := 0
	_, err := BulkLoad(st, func() ([]byte, []byte, bool) {
		i++
		if i > 2 {
			return nil, nil, false
		}
		return key(7), key(7), true
	})
	if err == nil {
		t.Fatal("duplicate keys must be rejected")
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	// The bulk-built tree must contain exactly the same mapping as an
	// incrementally built one.
	stA := pagestore.NewMemStore(512)
	bulk, err := BulkLoad(stA, sortedFeeder(1234))
	if err != nil {
		t.Fatal(err)
	}
	inc := newTree(t)
	for i := 0; i < 1234; i++ {
		inc.Put(key(i), key(i*2))
	}
	ca, _ := bulk.First()
	cb, _ := inc.First()
	for {
		na, nb := ca.Next(), cb.Next()
		if na != nb {
			t.Fatal("trees have different lengths")
		}
		if !na {
			break
		}
		if !bytes.Equal(ca.Key(), cb.Key()) || !bytes.Equal(ca.Value(), cb.Value()) {
			t.Fatalf("divergence at %v vs %v", ca.Key(), cb.Key())
		}
	}
}

// varKey is a variable-length key: a 1–12 byte prefix of i's decimal digits
// padded with a length-dependent tail, so separators differ in length and
// neighbours share prefixes.
func varKey(i int) []byte {
	s := fmt.Sprintf("%d", i)
	return []byte(s + strings.Repeat("~", i%7))
}

// varTree loads n variable-length keys in a scrambled order.
func varTree(t *testing.T, n int) *Tree {
	t.Helper()
	tr := newTree(t)
	for i := 0; i < n; i++ {
		j := i * 7919 % n
		if err := tr.Put(varKey(j), key(j)); err != nil {
			t.Fatalf("Put(%q): %v", varKey(j), err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tr.Height())
	}
	return tr
}

// TestVariableLengthKeysMultiLevel drives Get and Seek through interior
// pages whose separators have different lengths.
func TestVariableLengthKeysMultiLevel(t *testing.T) {
	const n = 1500
	tr := varTree(t, n)
	sorted := make([]string, n)
	for i := range sorted {
		sorted[i] = string(varKey(i))
		v, err := tr.Get(varKey(i))
		if err != nil || !bytes.Equal(v, key(i)) {
			t.Fatalf("Get(%q) = %x, %v", varKey(i), v, err)
		}
	}
	sort.Strings(sorted)
	// Probe absent keys between and around the stored ones: Seek must land
	// on the first stored key not below the probe.
	for _, probe := range []string{"", "0", "1", "10~", "5!", "749~~~~~", "9999", "\xff"} {
		c, err := tr.Seek([]byte(probe))
		if err != nil {
			t.Fatal(err)
		}
		i := sort.SearchStrings(sorted, probe)
		if i == len(sorted) {
			if c.Next() {
				t.Fatalf("Seek(%q) → %q, want end", probe, c.Key())
			}
			continue
		}
		if !c.Next() || string(c.Key()) != sorted[i] {
			t.Fatalf("Seek(%q) landed wrong, want %q", probe, sorted[i])
		}
	}
}

// TestInteriorChildMatchesChildIndex checks the in-place interior search
// against the decoded binary search on every interior page of a tree with
// variable-length separators.
func TestInteriorChildMatchesChildIndex(t *testing.T) {
	tr := varTree(t, 1500)
	b := make([]byte, tr.pageSize)
	var walk func(pageNo int64)
	walk = func(pageNo int64) {
		if err := tr.st.ReadPage(pageNo, b); err != nil {
			t.Fatal(err)
		}
		n, err := decodeNode(pageNo, append([]byte(nil), b...))
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			return
		}
		probes := [][]byte{nil, {}, []byte("\xff\xff")}
		for _, k := range n.keys {
			probes = append(probes, k, append(append([]byte(nil), k...), 0), k[:len(k)-1])
		}
		for _, p := range probes {
			if got, want := interiorChild(b, p), n.children[childIndex(n.keys, p)]; got != want {
				t.Fatalf("page %d key %q: interiorChild = %d, childIndex picks %d", pageNo, p, got, want)
			}
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(tr.root)
}

// TestDescentAllocs: read-only descents search interior pages in place, so
// Get and Seek on a 3-level tree allocate no more than on a single leaf.
func TestDescentAllocs(t *testing.T) {
	small := newTree(t)
	for i := 0; i < 8; i++ {
		if err := small.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	deep := newTree(t)
	for i := 0; i < 2000; i++ {
		if err := deep.Put(key(i*7919%2000), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if small.Height() != 1 || deep.Height() < 3 {
		t.Fatalf("heights %d and %d, want 1 and >= 3", small.Height(), deep.Height())
	}
	for _, op := range []struct {
		name string
		run  func(*Tree) error
	}{
		{"Get", func(tr *Tree) error { _, err := tr.Get(key(5)); return err }},
		{"Seek", func(tr *Tree) error { _, err := tr.Seek(key(5)); return err }},
	} {
		allocs := func(tr *Tree) float64 {
			return testing.AllocsPerRun(100, func() {
				if err := op.run(tr); err != nil {
					t.Fatal(err)
				}
			})
		}
		if flat, tall := allocs(small), allocs(deep); tall > flat {
			t.Errorf("%s allocates %.1f/op on a %d-level tree, %.1f/op on one leaf", op.name, tall, deep.Height(), flat)
		}
	}
}

// TestInteriorLSNMonotonic verifies writeNode bumps the on-page LSN of
// interior pages (the field is kept for the page format; see nodeHeader).
func TestInteriorLSNMonotonic(t *testing.T) {
	st := pagestore.NewMemStore(512)
	tr, err := Create(st)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d", tr.Height())
	}
	root, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.leaf {
		t.Fatal("root unexpectedly a leaf")
	}
	before := root.lsn
	if before == 0 {
		t.Fatal("interior root has zero LSN")
	}
	// Force more splits; the root must be rewritten with a higher LSN.
	for i := n; i < 4*n; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	root2, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	if !root2.leaf && root2.pageNo == root.pageNo && root2.lsn <= before {
		t.Fatalf("root LSN did not advance: %d -> %d", before, root2.lsn)
	}
}

// snapshotPages copies every page of a MemStore.
func snapshotPages(t *testing.T, st *pagestore.MemStore) [][]byte {
	t.Helper()
	n, _ := st.NumPages()
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, st.Size)
		if err := st.ReadPage(int64(i), out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestUpdateMatchesGetPut: on a multi-level tree with variable-length keys,
// Update leaves exactly the page bytes Get+Put leaves for a same-size value,
// so a logging store records the same deltas either way.
func TestUpdateMatchesGetPut(t *testing.T) {
	const n = 1500
	build := func() (*Tree, *pagestore.MemStore) {
		tr := varTree(t, n)
		return tr, tr.st.(*pagestore.MemStore)
	}
	viaUpdate, stU := build()
	viaPut, stP := build()
	for i := 0; i < n; i += 37 {
		k := varKey(i)
		if err := viaUpdate.Update(k, func(v []byte) { v[7] ^= 0x5a }); err != nil {
			t.Fatalf("Update(%q): %v", k, err)
		}
		v, err := viaPut.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		v2 := append([]byte(nil), v...)
		v2[7] ^= 0x5a
		if err := viaPut.Put(k, v2); err != nil {
			t.Fatal(err)
		}
		got, err := viaUpdate.Get(k)
		if err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("after Update, Get(%q) = %x, %v; want %x", k, got, err, v2)
		}
	}
	pu, pp := snapshotPages(t, stU), snapshotPages(t, stP)
	if len(pu) != len(pp) {
		t.Fatalf("page counts %d vs %d", len(pu), len(pp))
	}
	for i := range pu {
		if !bytes.Equal(pu[i], pp[i]) {
			t.Fatalf("page %d differs between Update and Get+Put", i)
		}
	}
}

func TestUpdateMissingKey(t *testing.T) {
	tr := varTree(t, 1500)
	called := false
	for _, k := range []string{"", "10~", "5!", "9999", "\xff"} {
		if err := tr.Update([]byte(k), func([]byte) { called = true }); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Update(%q) = %v, want ErrNotFound", k, err)
		}
	}
	if called {
		t.Fatal("Update called fn for a missing key")
	}
}

// TestUpdateAllocs: Update on a 3-level tree allocates nothing, backing its
// //simlint:noalloc annotation.
func TestUpdateAllocs(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 2000; i++ {
		if err := tr.Put(key(i*7919%2000), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	k := key(1234)
	if err := tr.Update(k, func(v []byte) { v[0]++ }); err != nil { // first call sizes the scratch page
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Update(k, func(v []byte) { v[0]++ }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Update allocates %.1f/op", allocs)
	}
}
