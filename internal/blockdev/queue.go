package blockdev

// AsyncWriter is implemented by no device in this module: the base issues
// every IO on the caller's goroutine. It stays only because the benchmark
// module's decorator test still names it.
type AsyncWriter interface {
	WriteAsync(blk uint32, data []byte) error
}
