package schedule

// Internals the external tests of the emitted families reach; those
// tests cannot live in package schedule, which the emitters import.
var (
	ProgramOrder    = programOrder
	GroupByBlock    = groupByBlock
	CheckProjection = checkProjection
	ReplayBoth      = replayBoth
	ExtremeSlab     = extremeSlab
)

// GroupBlock is the block width the executed stream is grouped by.
const GroupBlock = groupBlock
