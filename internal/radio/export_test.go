package radio

// framesLost replays ep's loss stream from its start and counts the
// frames the loss process dropped.
func (ep *Endpoint) framesLost() uint64 {
	replay := *ep
	replay.lossDraws = 0
	var n uint64
	for replay.lossDraws < ep.lossDraws {
		if replay.lost() {
			n++
		}
	}
	return n
}
