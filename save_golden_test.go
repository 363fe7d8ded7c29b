package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSaveGolden pins every byte Save writes: the SHA-256 of each file in
// the index directory of a 60,000-descriptor SR-tree build at chunks of
// 250 on 4 shards, unreplicated and at R=2 (which adds the replicas
// sidecar and the declustered replica chunks). Build and save may get
// faster, never different: only a deliberate on-disk format or layout
// change updates these hashes, with a CHANGES.md line saying so.
func TestSaveGolden(t *testing.T) {
	coll := GenerateCollection(60_000, 42)
	cfg := BuildConfig{Strategy: StrategySRTree, ChunkSize: 250}
	for _, tc := range []struct {
		name        string
		replication int
		want        map[string]string
	}{
		{"R=1", 1, map[string]string{
			"manifest":      "37fb32285a9e70d4ef920fca1d341f2459163965bc96732564e19b9bf92c83ab",
			"shard-0.chunk": "1773aa70bbd60d3cfd33bf2566fc5e0b34055c7d389c043c765ab6325a834778",
			"shard-0.idx":   "2e951ebfa9c18bb9f2d07408b5d1941468b066d248e2e5148d98d68131db81a6",
			"shard-1.chunk": "bc8c4d9db762bf459f0c74dcc8e9dcb897b14d93c0d24091a3d6bbf8fd1da695",
			"shard-1.idx":   "f3e6cf3bfa80d63852db15b71693e935e497501106fe8f2e10335ffd45500e57",
			"shard-2.chunk": "5f93846843421c2192bd4c225c3f7e8adf126985a1678794ef833f241caa3637",
			"shard-2.idx":   "e68eec1e90180cf3cb3db65c729aba7215d4dc3c51de6346c8665aab7ca608e1",
			"shard-3.chunk": "ff1221753a1d03803442d422fa09c2e529bd1180bb92b2ecf1326135f8b27a1c",
			"shard-3.idx":   "a64dbfd37113339578ccd01f068654715639e9f93998a17bca7deb68db4af58e",
		}},
		{"R=2", 2, map[string]string{
			"manifest":      "5057c659dbf5f1c1fb7f789c8cdef621ddadc8bcc495a474b2598dc86a0ca27a",
			"replicas":      "4e8ba003ecc39fd8d0be393f2f2dddc14b2b565c087172e98d9b9498c617b391",
			"shard-0.chunk": "307de330abbe48198256b588deb5bf7ee664cf1cc0983d125c6e59d1bdd13fbf",
			"shard-0.idx":   "c162defff4eb2be4b6693d6655d8754281444632fda5e020a8902778db72cabc",
			"shard-1.chunk": "9a4b1bfd3a9cff0432c6c411d2e0a74bd4d83828977673dac7d6f814b75a3ca3",
			"shard-1.idx":   "6ec2beeaf584776ce754843cf76e355ce51c09c86b4a97caeabe7649f0909dab",
			"shard-2.chunk": "efd51938b04795e56caf3177479341b927f8a84c064e402a8118b877a8693a89",
			"shard-2.idx":   "95ec3a88336d3bbd27472f75ef1e0b51957fe28d9dc8de96ee8859421d4074c9",
			"shard-3.chunk": "9a7bce723cafbadbf95156527a8b2537b3c7ca3a5d1d8584e4b573022bc987c1",
			"shard-3.idx":   "1d0f72040959297be7f9fe4cca7a86649b7fea029a731ef0b7805c9bf4a921fe",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sx, err := BuildReplicated(coll, cfg, 4, tc.replication)
			if err != nil {
				t.Fatal(err)
			}
			defer sx.Close()
			dir := t.TempDir()
			if err := sx.Save(dir); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]string, len(entries))
			for _, e := range entries {
				raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				got[e.Name()] = hex.EncodeToString(sum[:])
			}
			if !maps.Equal(got, tc.want) {
				var listing strings.Builder
				for _, name := range slices.Sorted(maps.Keys(got)) {
					fmt.Fprintf(&listing, "\t\t\t%q: %q,\n", name, got[name])
				}
				t.Fatalf("saved index differs from the pinned bytes; got\n%s", listing.String())
			}
		})
	}
}
