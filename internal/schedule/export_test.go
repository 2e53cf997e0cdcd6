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

// knownOrder returns what the known-order pass alone keeps of p's
// unpruned stream: the executed stream of a program without stage
// facts.
func knownOrder(p *Program) []Comparator {
	kept, _ := pruneComparators(p.unprunedLowered(), p.Nodes(), nil)
	return kept
}

// IRHash digests a program's op stream (see irHash).
var IRHash = irHash
