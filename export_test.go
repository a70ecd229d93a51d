package dcert

import "fmt"

// MineAndBroadcastPipelinedLaps is CertPlane.MineAndBroadcastPipelined with a
// lap call after each of its serial steps, for BenchmarkMinePath (the external
// test package cannot reach persistBlock or feedServing). It must run the
// same calls in the same order as the method it mirrors; "serve" is the SP
// and fleet feed plus the block's publication.
func (p *CertPlane) MineAndBroadcastPipelinedLaps(n int, lap func(step string)) error {
	txs, err := p.d.gen.Block(n)
	if err != nil {
		return err
	}
	lap("gen")
	blk, writes, err := p.d.miner.ProposeWithWrites(txs)
	if err != nil {
		return err
	}
	lap("propose")
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pipeCfg == nil {
		return fmt.Errorf("pipelines not running")
	}
	if err := p.d.persistBlock(blk, nil, writes); err != nil {
		return err
	}
	lap("journal")
	for _, s := range p.slots {
		if !s.alive || s.pipe == nil {
			continue
		}
		if err := s.pipe.Submit(blk); err != nil {
			return err
		}
	}
	lap("submit")
	if err := p.d.feedServing(blk); err != nil {
		return err
	}
	if err := p.d.net.Publish(TopicBlocks, "miner", blk); err != nil {
		return err
	}
	lap("serve")
	return nil
}
