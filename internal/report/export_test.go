package report

// ResealShard recomputes sr's digest, so a test can build a bundle
// whose contents were changed but whose digest is consistent.
func ResealShard(sr *ShardReport) {
	d, err := shardDigest(*sr)
	if err != nil {
		panic(err)
	}
	sr.Digest = d
}
