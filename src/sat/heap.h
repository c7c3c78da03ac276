/**
 * @file
 * Indexed binary max-heap over variable indices, ordered by an
 * external score array. Supports decrease/increase-key by index,
 * which the VSIDS/CHB branching heuristics need.
 */

#ifndef HYQSAT_SAT_HEAP_H
#define HYQSAT_SAT_HEAP_H

#include <utility>
#include <vector>

#include "sat/types.h"

namespace hyqsat::sat {

/**
 * Max-heap of Var keyed by a caller-owned score vector. The caller
 * mutates scores and then calls update() (or increase(), when the
 * score only grew) for the touched variable.
 */
class VarOrderHeap
{
  public:
    /** @param scores score array; index v gives var v's priority. */
    explicit VarOrderHeap(const std::vector<double> &scores)
        : scores_(scores)
    {}

    /** @return true if @p v is currently in the heap. */
    bool
    inHeap(Var v) const
    {
        return v < static_cast<Var>(index_.size()) && index_[v] >= 0;
    }

    /** @return true if the heap is empty. */
    bool empty() const { return heap_.empty(); }

    /** @return the number of queued variables. */
    std::size_t size() const { return heap_.size(); }

    /** Insert @p v (must not already be present). */
    void
    insert(Var v)
    {
        if (v >= static_cast<Var>(index_.size()))
            index_.resize(v + 1, -1);
        index_[v] = static_cast<int>(heap_.size());
        heap_.push_back(v);
        siftUp(index_[v]);
    }

    /** Re-establish heap order after @p v's score changed. */
    void
    update(Var v)
    {
        if (!inHeap(v))
            return;
        siftUp(index_[v]);
        siftDown(index_[v]);
    }

    /**
     * Re-establish heap order after @p v's score grew: a larger key
     * can only move toward the root, so only sift up.
     */
    void
    increase(Var v)
    {
        if (inHeap(v))
            siftUp(index_[v]);
    }

    /** Remove and return the maximum-score variable. */
    Var
    removeMax()
    {
        Var top = heap_[0];
        swapNodes(0, static_cast<int>(heap_.size()) - 1);
        index_[top] = -1;
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
        return top;
    }

    /** Remove every queued variable. */
    void
    clear()
    {
        for (Var v : heap_)
            index_[v] = -1;
        heap_.clear();
    }

  private:
    void
    siftUp(int i)
    {
        while (i > 0) {
            int parent = (i - 1) / 2;
            if (scores_[heap_[i]] <= scores_[heap_[parent]])
                break;
            swapNodes(i, parent);
            i = parent;
        }
    }

    void
    siftDown(int i)
    {
        const int n = static_cast<int>(heap_.size());
        while (true) {
            int best = i;
            int l = 2 * i + 1, r = 2 * i + 2;
            if (l < n && scores_[heap_[l]] > scores_[heap_[best]])
                best = l;
            if (r < n && scores_[heap_[r]] > scores_[heap_[best]])
                best = r;
            if (best == i)
                break;
            swapNodes(i, best);
            i = best;
        }
    }

    void
    swapNodes(int a, int b)
    {
        std::swap(heap_[a], heap_[b]);
        index_[heap_[a]] = a;
        index_[heap_[b]] = b;
    }

    const std::vector<double> &scores_;
    std::vector<Var> heap_;
    std::vector<int> index_; // position of var in heap_, -1 if absent
};

} // namespace hyqsat::sat

#endif // HYQSAT_SAT_HEAP_H
