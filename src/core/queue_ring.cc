#include "queue_ring.hh"

#include "base/logging.hh"
#include "base/serial.hh"

namespace smtsim
{

QueueRing::QueueRing(int num_slots, int depth)
    : links_(static_cast<size_t>(num_slots)), depth_(depth)
{
    SMTSIM_ASSERT(num_slots >= 1 && depth >= 1,
                  "bad queue ring shape");
}

const QueueRing::Link &
QueueRing::linkInto(int consumer_slot) const
{
    const int n = static_cast<int>(links_.size());
    return links_[(consumer_slot + n - 1) % n];
}

QueueRing::Link &
QueueRing::linkInto(int consumer_slot)
{
    const int n = static_cast<int>(links_.size());
    return links_[(consumer_slot + n - 1) % n];
}

bool
QueueRing::canPop(int consumer_slot, int count) const
{
    return static_cast<int>(linkInto(consumer_slot).fifo.size()) >=
           count;
}

std::uint64_t
QueueRing::pop(int consumer_slot)
{
    Link &link = linkInto(consumer_slot);
    SMTSIM_ASSERT(!link.fifo.empty(), "pop from empty queue link");
    const std::uint64_t v = link.fifo.front();
    link.fifo.pop_front();
    return v;
}

bool
QueueRing::canReserve(int producer_slot) const
{
    const Link &link = links_[producer_slot];
    return static_cast<int>(link.fifo.size()) + link.reserved <
           depth_;
}

void
QueueRing::reserve(int producer_slot)
{
    Link &link = links_[producer_slot];
    SMTSIM_ASSERT(static_cast<int>(link.fifo.size()) + link.reserved <
                      depth_,
                  "queue link over-reserved");
    ++link.reserved;
}

void
QueueRing::push(int producer_slot, std::uint64_t value)
{
    Link &link = links_[producer_slot];
    SMTSIM_ASSERT(link.reserved > 0, "push without reservation");
    --link.reserved;
    link.fifo.push_back(value);
}

void
QueueRing::clear()
{
    for (Link &link : links_) {
        link.fifo.clear();
        link.reserved = 0;
    }
}

template <class Ar, class Self>
void
QueueRing::transfer(Ar &ar, Self &ring)
{
    ar.shape("queue link", ring.links_, [&](auto &link) {
        ar("fifo", link.fifo);
        ar.check(link.fifo.size() <=
                     static_cast<std::size_t>(ring.depth_),
                 "queue link over its depth");
        if constexpr (Ar::kLoading)
            link.reserved = 0;
    });
}

template void QueueRing::transfer(SaveArchive &, const QueueRing &);
template void QueueRing::transfer(LoadArchive &, QueueRing &);

} // namespace smtsim
