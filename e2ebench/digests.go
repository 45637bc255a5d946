package main

// recordedDigests are the simulated-output digests of each workload at the
// default seed and full size. A change that alters what the program
// computes (not how fast) changes them; record the new ones with the change.
var recordedDigests = map[string]string{
	"live-replay": "5867fd9cf40740602da4848a37881011bd664bc00a7334740692a57e73920de1",
	"gateway":     "5daa71d256da666dc66848ecece937bfc0473b201b04bdbac211ff99029b1a17",
	"dataplane":   "71164994b5aeb08537c5d4c3f747b991cdd7ff39baae983d867437d2dc5e6b78",
	"matrix":      "7c2f4062af43ab460e19f725c2ce04bc7b0fec8fa805bd6702ece74cfc376a5e",
}
