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
// 250 on 4 shards, unreplicated and at R=2 (which adds the declustered
// replica chunks; the manifest records R and the primary counts, and the
// directory holds no other file). Build and save may get
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
			"manifest":      "30ebff2df34a9f23b2f4e36d32be3e46477baacbb4ebb20bfe5852cef23581aa",
			"shard-0.chunk": "168cbf76dd05baf1e3a6a1eb7c1f3b2b63a8742bcb188c8d2893913f3bae40f3",
			"shard-0.idx":   "2e951ebfa9c18bb9f2d07408b5d1941468b066d248e2e5148d98d68131db81a6",
			"shard-1.chunk": "8507eb4f7c49e1ecbb3dd502b42791cf8ec431d07ecc411b677d4b38e26aacbe",
			"shard-1.idx":   "f3e6cf3bfa80d63852db15b71693e935e497501106fe8f2e10335ffd45500e57",
			"shard-2.chunk": "2860c675b974b976c7526f00530d788573282e9ba884d2e1bd250249464904f0",
			"shard-2.idx":   "e68eec1e90180cf3cb3db65c729aba7215d4dc3c51de6346c8665aab7ca608e1",
			"shard-3.chunk": "502ca73f3285c13592a206fe5b3a822d4832c22444d06b5e6b69a78cb48b58b2",
			"shard-3.idx":   "a64dbfd37113339578ccd01f068654715639e9f93998a17bca7deb68db4af58e",
		}},
		{"R=2", 2, map[string]string{
			"manifest":      "80afdc76d5c18af58377b268ea20d8ccc57d48ee27382784b338a19ad061e2eb",
			"shard-0.chunk": "0c6b1c7afbeeecf9f657268f9df701a8c32cf520e1916514f9212d975033d384",
			"shard-0.idx":   "c162defff4eb2be4b6693d6655d8754281444632fda5e020a8902778db72cabc",
			"shard-1.chunk": "3159a13044291b387cd9b9de094a0fd72fafae146a50cea89e8af2dce1ceb1fd",
			"shard-1.idx":   "6ec2beeaf584776ce754843cf76e355ce51c09c86b4a97caeabe7649f0909dab",
			"shard-2.chunk": "ed0cdd40eeffdb6da77d253b0a3d4d26f789659c204fbc957ddc9bdb5993a55c",
			"shard-2.idx":   "95ec3a88336d3bbd27472f75ef1e0b51957fe28d9dc8de96ee8859421d4074c9",
			"shard-3.chunk": "98b6e35faef8129b0c837c4f7e5ff6e5a4a110c22cc809f744e867d68ae56c42",
			"shard-3.idx":   "1d0f72040959297be7f9fe4cca7a86649b7fea029a731ef0b7805c9bf4a921fe",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg.Replication = tc.replication
			sx, err := BuildSharded(coll, cfg, 4)
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
