package main

// golden holds the output digests committed for the default seed, keyed by
// workload/scale/output-seed: the search log of seed 1, the two tournaments
// from base seed 1, the /log bodies of the campaigns a default run submits
// (seeds 1-4) and of its set-up campaign. Outputs are functions of the seed
// alone — virtual time decides results, wall time is only reported — so a
// digest that moves is a behaviour change, whatever the host.
var golden = map[string]string{
	"campaign_http/full/log-1":            "e9e60843e4c78f453fd815fad61437ef6dbf02b30e2e5ce262c9bcab096c4198",
	"campaign_http/full/log-2":            "52b74927a59eb3ea1555b77f10241f83bf8ceded8c3110ec61ac58e9b03a193a",
	"campaign_http/full/log-3":            "bcaaa76c5e3cab9a894fa887a419d13ee0c843a0e2db5a26a4dd0ccca3ad6111",
	"campaign_http/full/log-4":            "7acafe30b8cee4e11c34784ff01afbf231bb2d7b041156b2e4c5a450e666070e",
	"campaign_http/full/warm-log-1":       "adccd0783e8b6691e7f887cf089741d93768cf2c82fb3987c5de0c692aa70cb7",
	"campaign_http/smoke/log-1":           "f76b9ab1b4604fc10299c6ba7c09de7b87eee7b6f62722c61af2a497eb5a55ce",
	"campaign_http/smoke/warm-log-1":      "5e8822f080d8c9c2a7daa1cb085f6f1a455149a7165a3e4ab27f5066ad95a420",
	"live_search/full/log-1":              "b24248aa1c32fb5f8107e61549d8a3b26f6658106a50cd32003785c003505672",
	"live_search/smoke/log-1":             "deac26f4c2a306588238790d7ee212805936627dac70c8b35759fe2005380d2b",
	"tournament_rl/full/tournament-1":     "e6fb9f5a6d6b441c7d00a9a9d871b8acc0c01c86b524ce5e13f9c04fe4356869",
	"tournament_rl/smoke/tournament-1":    "22b4a9d8d9fae53a8ae12343978b6b9d2c561ac1094c6c68c3a8bc51ba849385",
	"tournament_sweep/full/tournament-1":  "844c2ccfd14286f981d30662d81033bc484072e3206a414c3ba62b0c474be961",
	"tournament_sweep/smoke/tournament-1": "d52ba529a61819761c8e17da0648fd9f8d06f80117d80c7dcf114a043dd56def",
}
