// core::RegistrationClient on its own: no Simulator, no sockets — each
// test feeds the state machine events and checks the decisions it makes.
#include <gtest/gtest.h>

#include <vector>

#include "core/registration_client.h"

using namespace mip;
using namespace mip::core;

namespace {

using Action = RegistrationClient::Action;
using Exchange = RegistrationClient::Exchange;

RetryPolicy policy(unsigned retry_budget = 0, bool jitter = true) {
    return {.base = sim::milliseconds(100),
            .cap = sim::seconds(1),
            .max_retries = 3,
            .retry_budget = retry_budget,
            .circuit_probe = sim::seconds(8),
            .jitter = jitter};
}

}  // namespace

TEST(RegistrationClient, BudgetOpensTheCircuitAndAServedReplyClosesIt) {
    RegistrationClient client(policy(/*retry_budget=*/2), 7);
    RegistrationClient::Decision send = client.start(Exchange::Refresh);
    std::vector<RegistrationClient::Decision> waits;
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(send.action, Action::Send);
        waits.push_back(client.backoff(send.id));
        send = client.retry(send.id);
    }
    // Two retries ride the ramp; the third wait is past the budget.
    EXPECT_FALSE(waits[0].parked);
    EXPECT_FALSE(waits[1].parked);
    EXPECT_TRUE(waits[2].parked);
    EXPECT_TRUE(waits[2].circuit_opened);
    EXPECT_GE(waits[2].delay, sim::seconds(6));  // circuit_probe +-25%
    EXPECT_LT(waits[2].delay, sim::seconds(10));
    // Opened once: later park intervals do not reopen it.
    EXPECT_TRUE(waits[3].parked);
    EXPECT_FALSE(waits[3].circuit_opened);
    EXPECT_TRUE(client.circuit_open());
    ASSERT_EQ(send.action, Action::Send);
    EXPECT_TRUE(send.parked);  // a probe

    // A rejection ends the exchange but leaves the circuit open...
    EXPECT_TRUE(client.reply(send.id, /*served=*/false));
    EXPECT_EQ(client.backoff(send.id).action, Action::Ignore);
    EXPECT_TRUE(client.circuit_open());
    // ...a served reply closes it.
    send = client.start(Exchange::Refresh);
    EXPECT_TRUE(send.parked);
    EXPECT_TRUE(client.reply(send.id, /*served=*/true));
    EXPECT_FALSE(client.circuit_open());
}

TEST(RegistrationClient, AttachIsExemptFromTheBudget) {
    RegistrationClient client(policy(/*retry_budget=*/1), 7);
    RegistrationClient::Decision send = client.start(Exchange::Attach);
    for (int i = 0; i < 3 && send.action == Action::Send; ++i) {
        EXPECT_FALSE(client.backoff(send.id).parked);
        send = client.retry(send.id);
    }
    EXPECT_FALSE(client.circuit_open());
}

TEST(RegistrationClient, StaleIdsAreIgnored) {
    RegistrationClient client(policy(), 7);
    const RegistrationClient::Decision first = client.start(Exchange::Refresh);
    ASSERT_EQ(client.backoff(first.id).action, Action::Wait);
    const RegistrationClient::Decision second = client.retry(first.id);
    ASSERT_EQ(second.action, Action::Send);
    EXPECT_NE(first.id, second.id);

    // Everything about the superseded send is stale.
    EXPECT_FALSE(client.reply(first.id, true));
    EXPECT_EQ(client.backoff(first.id).action, Action::Ignore);
    EXPECT_EQ(client.retry(first.id).action, Action::Ignore);
    // A deregistration's id never matches the exchange either.
    EXPECT_FALSE(client.reply(client.take_id(), true));

    EXPECT_TRUE(client.reply(second.id, true));
    // Once answered, a late timeout or retry for it does nothing.
    EXPECT_EQ(client.backoff(second.id).action, Action::Ignore);
    EXPECT_EQ(client.retry(second.id).action, Action::Ignore);
}

TEST(RegistrationClient, ResetAbandonsTheExchangeAndClosesTheCircuit) {
    RegistrationClient client(policy(/*retry_budget=*/1), 7);
    RegistrationClient::Decision send = client.start(Exchange::Refresh);
    ASSERT_FALSE(client.backoff(send.id).parked);
    send = client.retry(send.id);
    ASSERT_TRUE(client.backoff(send.id).circuit_opened);
    client.reset();
    EXPECT_FALSE(client.circuit_open());
    EXPECT_EQ(client.retry(send.id).action, Action::Ignore);
}

TEST(RegistrationClient, AttachGivesUpAfterMaxRetries) {
    RegistrationClient client(policy(), 7);
    RegistrationClient::Decision d = client.start(Exchange::Attach);
    unsigned sends = 0;
    std::uint64_t last = 0;
    while (d.action == Action::Send) {
        EXPECT_EQ(d.attempt, sends);
        ++sends;
        last = d.id;
        ASSERT_EQ(client.backoff(d.id).action, Action::Wait);
        d = client.retry(d.id);
    }
    EXPECT_EQ(d.action, Action::GiveUp);
    EXPECT_EQ(sends, 3u);  // max_retries
    EXPECT_EQ(client.retry(last).action, Action::Ignore);  // nothing pending

    RetryPolicy none = policy();
    none.max_retries = 0;
    RegistrationClient impatient(none, 7);
    EXPECT_EQ(impatient.start(Exchange::Attach).action, Action::GiveUp);
}

TEST(RegistrationClient, JitteredRampIsDecorrelatedBackoffForTheSameSeed) {
    const RetryPolicy p = policy();
    RegistrationClient client(p, 42);
    DecorrelatedBackoff reference(42, p.base, p.cap);
    for (int exchange = 0; exchange < 3; ++exchange) {
        RegistrationClient::Decision send = client.start(Exchange::Refresh);
        reference.reset();  // a fresh exchange restarts the ramp, not the stream
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(client.backoff(send.id).delay, reference.next());
            send = client.retry(send.id);
        }
        client.reply(send.id, true);
    }
}

TEST(RegistrationClient, DoublingRunsBaseTwiceBaseUpToTheCap) {
    RegistrationClient client(policy(/*retry_budget=*/0, /*jitter=*/false), 42);
    RegistrationClient::Decision send = client.start(Exchange::Refresh);
    std::vector<sim::Duration> delays;
    for (int i = 0; i < 6; ++i) {
        delays.push_back(client.backoff(send.id).delay);
        send = client.retry(send.id);
    }
    const std::vector<sim::Duration> expected{
        sim::milliseconds(100), sim::milliseconds(200), sim::milliseconds(400),
        sim::milliseconds(800), sim::seconds(1),        sim::seconds(1)};
    EXPECT_EQ(delays, expected);
}
