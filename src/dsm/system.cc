#include "dsm/system.hh"

#include "base/logging.hh"

namespace mspdsm
{

const char *
predKindName(PredKind k)
{
    switch (k) {
      case PredKind::None:
        return "none";
      case PredKind::Cosmos:
        return "Cosmos";
      case PredKind::Msp:
        return "MSP";
      case PredKind::Vmsp:
        return "VMSP";
    }
    panic("unknown PredKind ", int(k));
}

DsmSystem::DsmSystem(const DsmConfig &cfg)
    : cfg_(cfg)
{
    const unsigned n = cfg_.proto.numNodes;
    fatal_if(n == 0 || n > maxNodes, "node count ", n, " unsupported");
    fatal_if(cfg_.spec != SpecMode::None && cfg_.pred != PredKind::Vmsp,
             "read speculation requires the VMSP predictor");

    Rng root(cfg_.proto.seed);
    net_ = std::make_unique<Network>(eq_, cfg_.proto, root.split());
    barrier_ = std::make_unique<GlobalBarrier>(eq_, n, barrierCost);

    const AddrMap map(cfg_.proto);
    auto make_pred = [n, &map](PredKind kind, std::size_t depth)
        -> std::unique_ptr<PredictorBase> {
        switch (kind) {
          case PredKind::None:
            return nullptr;
          case PredKind::Cosmos:
            return std::make_unique<Cosmos>(depth, n, map);
          case PredKind::Msp:
            return std::make_unique<Msp>(depth, n, map);
          case PredKind::Vmsp:
            return std::make_unique<Vmsp>(depth, n, map);
        }
        panic("unknown PredKind");
    };

    preds_.resize(n);
    obs_.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        preds_[i] = make_pred(cfg_.pred, cfg_.historyDepth);
        for (const ObserverSpec &os : cfg_.observers) {
            fatal_if(os.kind == PredKind::None,
                     "observer must name a predictor");
            obs_[i].push_back(make_pred(os.kind, os.depth));
        }
    }

    for (unsigned i = 0; i < n; ++i) {
        caches_.emplace_back(NodeId(i), eq_, *net_, cfg_.proto);
        // Passive observers see the arrival-ordered message stream;
        // the speculation-driving VMSP is fed separately by the
        // directory in service order (see Directory::specObserve).
        std::vector<PredictorBase *> watching;
        for (auto &o : obs_[i])
            watching.push_back(o.get());
        Vmsp *vmsp = cfg_.pred == PredKind::Vmsp
                         ? static_cast<Vmsp *>(preds_[i].get())
                         : nullptr;
        dirs_.emplace_back(NodeId(i), eq_, *net_, cfg_.proto,
                           std::move(watching), vmsp, cfg_.spec);
    }

    // Static delivery sinks: the network routes each delivered
    // message by type to the node's directory or cache controller
    // with direct calls (see Network::deliver), so nothing on the
    // per-message path goes through a std::function.
    for (unsigned i = 0; i < n; ++i)
        net_->attach(NodeId(i), caches_[i], dirs_[i]);

    for (unsigned i = 0; i < n; ++i)
        procs_.emplace_back(NodeId(i), eq_, caches_[i], *barrier_);

    if (!cfg_.faults.empty()) {
        std::vector<CacheCtrl *> cachev;
        std::vector<Directory *> dirv;
        std::vector<Processor *> procv;
        std::vector<std::vector<PredictorBase *>> nodePreds(n);
        for (unsigned i = 0; i < n; ++i) {
            cachev.push_back(&caches_[i]);
            dirv.push_back(&dirs_[i]);
            procv.push_back(&procs_[i]);
            if (preds_[i])
                nodePreds[i].push_back(preds_[i].get());
            for (auto &o : obs_[i])
                nodePreds[i].push_back(o.get());
        }
        faults_ = std::make_unique<FaultManager>(
            eq_, *net_, cfg_.proto, cfg_.faults, std::move(cachev),
            std::move(dirv), std::move(procv), std::move(nodePreds));
    }

    if (!cfg_.obs.empty()) {
        // Same gating discipline as the fault layer: an empty config
        // builds nothing and every hook site stays a null check.
        std::vector<CacheCtrl *> cachev;
        std::vector<Processor *> procv;
        std::vector<PredictorBase *> predv;
        for (unsigned i = 0; i < n; ++i) {
            cachev.push_back(&caches_[i]);
            procv.push_back(&procs_[i]);
            predv.push_back(preds_[i].get());
        }
        obsMgr_ = std::make_unique<ObsManager>(
            eq_, *net_, cfg_.proto, cfg_.obs, std::move(cachev),
            std::move(procv), std::move(predv));
        net_->setObs(obsMgr_.get());
        for (unsigned i = 0; i < n; ++i) {
            caches_[i].setObs(obsMgr_.get());
            dirs_[i].setObs(obsMgr_.get());
            procs_[i].setObs(obsMgr_.get());
        }
        if (faults_)
            faults_->setObs(obsMgr_.get());
    }
}

DsmSystem::~DsmSystem() = default;

BlockId
DsmSystem::blockOf(Addr a) const
{
    return workload_ ? workload_->blockOf(a) : cfg_.proto.blockOf(a);
}

RunResult
DsmSystem::run(const Workload &w)
{
    return runOwned(
        std::make_unique<const CompiledWorkload>(w, AddrMap(cfg_.proto)));
}

RunResult
DsmSystem::run(const std::vector<Trace> &traces)
{
    return runOwned(std::make_unique<const CompiledWorkload>(
        traces, AddrMap(cfg_.proto)));
}

RunResult
DsmSystem::runOwned(std::unique_ptr<const CompiledWorkload> w)
{
    // The compilation must outlive this call, not just the nested
    // run(): on a TickLimit trip the queue stays resumable
    // (tests/dsm/test_ticklimit.cc) and the pending step events hold
    // CompiledTrace spans into the workload's arena, so it is parked
    // on the system. Replacing a previous run's arena here is safe:
    // no event dispatches between the assignment and Processor::start
    // rebinding every span in the nested run().
    ownedWorkload_ = std::move(w);
    return run(*ownedWorkload_);
}

RunResult
DsmSystem::run(const CompiledWorkload &w)
{
    fatal_if(w.numTraces() != procs_.size(),
             "expected ", procs_.size(), " traces, got ",
             w.numTraces());
    fatal_if(w.blockSize() != cfg_.proto.blockSize,
             "workload compiled for ", w.blockSize(),
             "-byte blocks, machine uses ", cfg_.proto.blockSize);
    fatal_if(w.numNodes() != cfg_.proto.numNodes ||
                 w.blocksPerPage() != cfg_.proto.blocksPerPage(),
             "workload numbered for ", w.numNodes(), " nodes and ",
             w.blocksPerPage(), " blocks per page, machine has ",
             cfg_.proto.numNodes, " and ", cfg_.proto.blocksPerPage());
    workload_ = &w;

    // Size every per-block table from the workload's per-home block
    // counts, so the run allocates none on first touch. Caches hold
    // blocks of every home; a directory and its predictors hold their
    // own home's (adopted shards grow on demand).
    for (std::size_t h = 0; h < procs_.size(); ++h) {
        const NodeId home = static_cast<NodeId>(h);
        const std::size_t blocks = w.blocksAt(home);
        for (std::size_t i = 0; i < caches_.size(); ++i)
            caches_[i].reserveShard(home, blocks);
        dirs_[h].reserveShard(home, blocks);
        if (preds_[h])
            preds_[h]->reserveShard(home, blocks);
        for (auto &o : obs_[h])
            o->reserveShard(home, blocks);
    }
    if (obsMgr_)
        obsMgr_->setWorkload(&w);

    for (std::size_t i = 0; i < procs_.size(); ++i)
        procs_[i].start(w.trace(i));

    verbose("run: ", procs_.size(), " nodes, spec ",
            specModeName(cfg_.spec),
            faults_ ? ", fault plan armed" : "",
            obsMgr_ ? ", instrumented" : "");
    const bool drained = eq_.run(cfg_.tickLimit);
    verbose("run ", drained ? "drained" : "hit the tick limit",
            " at tick ", eq_.curTick(), ", ", net_->messagesSent(),
            " messages, ", eq_.executed(), " events");

    RunResult r;
    if (!drained) {
        // Hitting the deadlock guard is reported, not fatal: sweep
        // harnesses want to record the failure and move to the next
        // configuration. The statistics below are a partial snapshot.
        r.status = RunStatus::TickLimit;
    } else {
        // A drained queue with an unfinished trace cannot make
        // further progress: that is a protocol bug, not a guard trip.
        // Exception: a fault plan that kills a node and never restarts
        // it legitimately wedges the machine (survivors park at the
        // barrier waiting for the dead node); report partial results.
        for (std::size_t i = 0; i < procs_.size(); ++i) {
            if (procs_[i].done())
                continue;
            panic_if(!faults_ || faults_->deadSet().empty(),
                     "processor ", procs_[i].id(),
                     " did not finish its trace");
            r.status = RunStatus::TickLimit;
            break;
        }
    }
    r.execTicks = eq_.curTick();
    r.barrierEpisodes = barrier_->episodes();
    r.messages = net_->messagesSent();
    // Both counters are queue/network lifetime totals, so the ratio
    // stays consistent across fault restarts and resumed runs.
    r.eventsDispatched = eq_.executed();
    r.queueingCycles = net_->queueingCycles();
    r.linkQueueingCycles = net_->linkQueueingCycles();

    if (faults_) {
        r.fault = faults_->outcome();
        for (std::size_t i = 0; i < procs_.size(); ++i)
            r.fault.opsAtEnd += procs_[i].stats().ops;
        for (std::size_t i = 0; i < caches_.size(); ++i) {
            const CacheStats &cs = caches_[i].stats();
            r.fault.retries += cs.retries.value();
            r.fault.nacksSeen += cs.nacks.value();
            r.fault.timeouts += cs.timeouts.value();
            r.fault.staleFills += cs.staleFills.value();
        }
        for (std::size_t i = 0; i < dirs_.size(); ++i)
            r.fault.dirAborts += dirs_[i].stats().faultAborts.value();
        r.fault.linkDrops = net_->linkDrops();
        r.fault.retransmits = net_->retransmits();
    }

    double wait_sum = 0.0;
    double mem_sum = 0.0;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
        wait_sum += static_cast<double>(procs_[i].stats().requestWait);
        mem_sum += static_cast<double>(procs_[i].stats().memWait);
    }
    r.avgRequestWait = wait_sum / static_cast<double>(procs_.size());
    r.avgMemWait = mem_sum / static_cast<double>(procs_.size());

    for (std::size_t i = 0; i < caches_.size(); ++i) {
        const CacheStats &cs = caches_[i].stats();
        r.reads += cs.demandReads.value() + cs.specServedFr.value() +
                   cs.specServedSwi.value();
        r.writes += cs.demandWrites.value();
        r.specServedFr += cs.specServedFr.value();
        r.specServedSwi += cs.specServedSwi.value();
        r.specDropped += cs.specDropped.value();
        // Merge the always-on distributions (bucket-wise sums, so the
        // node iteration order cannot matter).
        r.missLat.merge(cs.readMissLat);
        r.missLat.merge(cs.writeMissLat);
    }
    r.missLatP50 = r.missLat.percentile(50.0);
    r.missLatP90 = r.missLat.percentile(90.0);
    r.missLatP99 = r.missLat.percentile(99.0);

    // Aggregate a predictor family (one instance per node) into one
    // PredStats/StorageReport pair; byte overhead is linear in the
    // entry count, so the weighted average is exact.
    auto aggregate = [this](auto &&instance_of_node, PredStats &ps,
                            StorageReport &st) {
        double bytes_weighted = 0.0;
        for (std::size_t i = 0; i < dirs_.size(); ++i) {
            PredictorBase *p = instance_of_node(i);
            if (!p)
                continue;
            const PredStats &s = p->stats();
            ps.observed.inc(s.observed.value());
            ps.predicted.inc(s.predicted.value());
            ps.correct.inc(s.correct.value());
            const StorageReport sr = p->storage();
            st.pteTotal += sr.pteTotal;
            st.blocksAllocated += sr.blocksAllocated;
            bytes_weighted += sr.avgBytesPerBlock *
                              static_cast<double>(sr.blocksAllocated);
        }
        if (st.blocksAllocated > 0) {
            st.avgPte = static_cast<double>(st.pteTotal) /
                        static_cast<double>(st.blocksAllocated);
            st.avgBytesPerBlock =
                bytes_weighted /
                static_cast<double>(st.blocksAllocated);
        }
    };

    for (std::size_t i = 0; i < dirs_.size(); ++i) {
        const SpecStats &ss = dirs_[i].specStats();
        r.specSentFr += ss.specSentFr.value();
        r.specSentSwi += ss.specSentSwi.value();
        r.specMissFr += ss.specMissFr.value();
        r.specMissSwi += ss.specMissSwi.value();
        r.swiSent += ss.swiSent.value();
        r.swiPremature += ss.swiPremature.value();
        r.swiSuppressed += ss.swiSuppressed.value();
    }

    if (obsMgr_) {
        // Close the trace sink now (not at system destruction) so a
        // caller can validate the file as soon as run() returns.
        obsMgr_->finish();
        r.seriesInterval = obsMgr_->config().sampleInterval;
        r.series = obsMgr_->series();
    }

    aggregate([this](std::size_t i) { return preds_[i].get(); },
              r.pred, r.storage);

    for (std::size_t k = 0; k < cfg_.observers.size(); ++k) {
        ObserverResult orr;
        orr.depth = cfg_.observers[k].depth;
        orr.name = predKindName(cfg_.observers[k].kind);
        aggregate(
            [this, k](std::size_t i) { return obs_[i][k].get(); },
            orr.stats, orr.storage);
        r.observers.push_back(std::move(orr));
    }
    return r;
}

} // namespace mspdsm
