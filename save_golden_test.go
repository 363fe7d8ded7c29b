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
// sidecar). Build and save may get faster, never different: only a
// deliberate on-disk format change updates these hashes, with a
// CHANGES.md line saying so.
func TestSaveGolden(t *testing.T) {
	coll := GenerateCollection(60_000, 42)
	cfg := BuildConfig{Strategy: StrategySRTree, ChunkSize: 250}
	for _, tc := range []struct {
		replication int
		want        map[string]string
	}{
		{1, map[string]string{
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
		{2, map[string]string{
			"manifest":      "c46a09c4944d0e45259fbde6f56f52bff5af54eef5d6cd2af588f5a577c200a7",
			"replicas":      "1ffb6c1fd4e8128958b032f6c02adec81b4b05553ddd0fc9782983ebc553d01d",
			"shard-0.chunk": "ad056d7834103d2670cb58b935d6f0f14dea538a1c0eb02d09b951dc8e779068",
			"shard-0.idx":   "844d585f0a9add1f32154ecba1f9879aa9c47c2f25e5550b0814c91d49f7cfd8",
			"shard-1.chunk": "75fa33645820c73572db3903ac7296514891a3c761e917ae2bb84592a0241516",
			"shard-1.idx":   "f76e4966a0da383cbf2d7656776196e07ec27e233f013b3132165494a3366010",
			"shard-2.chunk": "005bfcb2beea09ed4accd710047dd937ac8455fff1469074838a4f19992acb63",
			"shard-2.idx":   "2459ec2a4b1e2fffd0426e58efa840e20d74620cc70e6bedafc6386354f3b204",
			"shard-3.chunk": "a09881156d2b49aa143a130089ad93b296a1d372c350b80ced83a7c01db5e377",
			"shard-3.idx":   "99004bd808a653b67d70d15b9b91c17d02bcd43c8797c2434bffed54c6735e81",
		}},
	} {
		t.Run(fmt.Sprintf("R=%d", tc.replication), func(t *testing.T) {
			sx, err := BuildReplicated(coll, cfg, 4, tc.replication, nil)
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
