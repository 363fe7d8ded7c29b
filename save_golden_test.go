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
// 250 on 4 shards, unreplicated, at R=2 (which adds the replicas
// sidecar) with round-robin replicas, and at R=2 with replicas placed
// hottest first from a Zipf workload sample. Build and save may get faster, never different: only a
// deliberate on-disk format change updates these hashes, with a
// CHANGES.md line saying so.
func TestSaveGolden(t *testing.T) {
	coll := GenerateCollection(60_000, 42)
	cfg := BuildConfig{Strategy: StrategySRTree, ChunkSize: 250}
	sample, err := ZipfQueries(coll, 500, 1.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		replication int
		sample      []Vector
		want        map[string]string
	}{
		{"R=1", 1, nil, map[string]string{
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
		{"R=2", 2, nil, map[string]string{
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
		{"R=2 sampled", 2, sample, map[string]string{
			"manifest":      "c46a09c4944d0e45259fbde6f56f52bff5af54eef5d6cd2af588f5a577c200a7",
			"replicas":      "34070a663137ec22c3aa0add638204d10f33042ff7a4ca3e763563e658ac1559",
			"shard-0.chunk": "7c8883a41774261dc2658ecbd146822d00458209bdffabdd1a8ab60bc5c405e5",
			"shard-0.idx":   "209db45cf2dd6c318052669e902ca3d8c738a4fca9b06fcb50768e646b76a14e",
			"shard-1.chunk": "9c4fce5956a29d516c4ebc8feb1c703c79a4a5a78950dcc8b8f4a99e8b4f31e4",
			"shard-1.idx":   "17785a4f89d64a9aaf1ca94f33905dfa0c19a46cc33164e66071b03c4a2aa8db",
			"shard-2.chunk": "4c89f5d80016abaadb25390c8bf4bc85a0ec8f882ae752db1169bc184aae5f21",
			"shard-2.idx":   "782615cc9232d70aa46813f0517d0c57079ddebb9a95822e753df89f10a0a0ad",
			"shard-3.chunk": "4c9e535b2a30496c169bc37004a39f79b48a40b01f5d1d1cf8c5e77a6c3556df",
			"shard-3.idx":   "e44350f8c0f5c2568f95d74d6081cef523472126b9a8aaa998c5a55cf26ad221",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sx, err := BuildReplicated(coll, cfg, 4, tc.replication, tc.sample)
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
